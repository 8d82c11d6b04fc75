//! Device memory state: argument binding, global/constant/texture buffers
//! with simulated addresses, per-block shared memory, per-warp local memory.

use crate::value::{lanes, Lanes, Mask};
use np_kernel_ir::kernel::{Kernel, ParamKind};
use np_kernel_ir::types::Scalar;
use std::collections::HashMap;

/// A typed device buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum Buffer {
    F32(Vec<f32>),
    I32(Vec<i32>),
    U32(Vec<u32>),
}

impl Buffer {
    pub fn len(&self) -> usize {
        match self {
            Buffer::F32(v) => v.len(),
            Buffer::I32(v) => v.len(),
            Buffer::U32(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn ty(&self) -> Scalar {
        match self {
            Buffer::F32(_) => Scalar::F32,
            Buffer::I32(_) => Scalar::I32,
            Buffer::U32(_) => Scalar::U32,
        }
    }

    pub fn read_bits(&self, idx: usize) -> u32 {
        match self {
            Buffer::F32(v) => v[idx].to_bits(),
            Buffer::I32(v) => v[idx] as u32,
            Buffer::U32(v) => v[idx],
        }
    }

    /// Read the elements at `idx` into `out` for the lanes of `mask`.
    pub(crate) fn read_lanes(&self, idx: &Lanes, mask: Mask, out: &mut Lanes) {
        fn gather<T: Copy>(v: &[T], idx: &Lanes, mask: Mask, out: &mut Lanes, f: fn(T) -> u32) {
            lanes(mask).for_each(|l| out[l] = f(v[idx[l] as usize]));
        }
        match self {
            Buffer::F32(v) => gather(v, idx, mask, out, f32::to_bits),
            Buffer::I32(v) => gather(v, idx, mask, out, |x| x as u32),
            Buffer::U32(v) => gather(v, idx, mask, out, |x| x),
        }
    }

    pub fn write_bits(&mut self, idx: usize, bits: u32) {
        match self {
            Buffer::F32(v) => v[idx] = f32::from_bits(bits),
            Buffer::I32(v) => v[idx] = bits as i32,
            Buffer::U32(v) => v[idx] = bits,
        }
    }
}

/// One bound kernel argument.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    F32(f32),
    I32(i32),
    U32(u32),
    Buf(Buffer),
}

/// Kernel arguments by parameter name. Buffers are moved in and can be
/// taken back out after the launch.
///
/// Binding the same name twice is a host-side contract violation, not a
/// silent last-write-wins: the first duplicate is remembered and surfaces
/// as a typed [`FaultKind::ContractViolation`](crate::FaultKind) when the
/// arguments are bound at launch.
#[derive(Debug, Clone, Default)]
pub struct Args {
    map: HashMap<String, ArgValue>,
    /// First argument name bound more than once, if any.
    duplicate: Option<String>,
}

impl Args {
    pub fn new() -> Self {
        Args::default()
    }

    fn set(&mut self, name: &str, v: ArgValue) {
        if self.map.insert(name.to_string(), v).is_some() && self.duplicate.is_none() {
            self.duplicate = Some(name.to_string());
        }
    }

    pub fn f32(mut self, name: &str, v: f32) -> Self {
        self.set(name, ArgValue::F32(v));
        self
    }

    pub fn i32(mut self, name: &str, v: i32) -> Self {
        self.set(name, ArgValue::I32(v));
        self
    }

    pub fn u32(mut self, name: &str, v: u32) -> Self {
        self.set(name, ArgValue::U32(v));
        self
    }

    pub fn buf_f32(mut self, name: &str, v: Vec<f32>) -> Self {
        self.set(name, ArgValue::Buf(Buffer::F32(v)));
        self
    }

    pub fn buf_i32(mut self, name: &str, v: Vec<i32>) -> Self {
        self.set(name, ArgValue::Buf(Buffer::I32(v)));
        self
    }

    pub fn buf_u32(mut self, name: &str, v: Vec<u32>) -> Self {
        self.set(name, ArgValue::Buf(Buffer::U32(v)));
        self
    }

    pub fn get(&self, name: &str) -> Option<&ArgValue> {
        self.map.get(name)
    }

    /// Borrow a bound f32 buffer (e.g. to read results after a launch).
    pub fn get_f32(&self, name: &str) -> Option<&[f32]> {
        match self.map.get(name) {
            Some(ArgValue::Buf(Buffer::F32(v))) => Some(v),
            _ => None,
        }
    }

    /// Borrow a bound i32 buffer.
    pub fn get_i32(&self, name: &str) -> Option<&[i32]> {
        match self.map.get(name) {
            Some(ArgValue::Buf(Buffer::I32(v))) => Some(v),
            _ => None,
        }
    }

    pub(crate) fn get_mut(&mut self, name: &str) -> Option<&mut ArgValue> {
        self.map.get_mut(name)
    }
}

/// Everything a launch can fail with: setup errors (bad arguments, rejected
/// occupancy) and runtime faults the sanitizer detected while interpreting
/// the kernel. Non-exhaustive so new failure classes can be added without a
/// breaking change — downstream matches need a wildcard arm.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// A kernel parameter had no bound argument.
    MissingArg(String),
    /// Argument type does not match the parameter kind.
    ArgTypeMismatch { param: String, expected: &'static str },
    /// Occupancy computation rejected the launch.
    Launch(String),
    /// The sanitizer detected a kernel contract violation during execution
    /// (out-of-bounds access, race, divergent barrier, watchdog, ...).
    /// Boxed so the happy-path `Result` stays a couple of words wide.
    Fault(Box<crate::fault::SimFault>),
    /// A captured trace could not be replayed under the requested device
    /// or simulation configuration (see [`np_gpu_sim::replay::ReplayError`]).
    Replay(np_gpu_sim::replay::ReplayError),
}

impl ExecError {
    /// The fault, when this error is a detected kernel contract violation.
    pub fn fault(&self) -> Option<&crate::fault::SimFault> {
        match self {
            ExecError::Fault(f) => Some(f.as_ref()),
            _ => None,
        }
    }
}

impl From<crate::fault::SimFault> for ExecError {
    fn from(f: crate::fault::SimFault) -> Self {
        ExecError::Fault(Box::new(f))
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::MissingArg(p) => write!(f, "no argument bound for parameter {p:?}"),
            ExecError::ArgTypeMismatch { param, expected } => {
                write!(f, "argument for {param:?} must be {expected}")
            }
            ExecError::Launch(msg) => write!(f, "launch rejected: {msg}"),
            ExecError::Fault(fault) => write!(f, "kernel fault: {fault}"),
            ExecError::Replay(e) => write!(f, "replay rejected: {e}"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Fault(fault) => Some(fault),
            ExecError::Replay(e) => Some(e),
            _ => None,
        }
    }
}

/// Description of one array visible to the interpreter, with its simulated
/// base address (used for coalescing / cache analysis).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ArrayBinding {
    pub space: np_kernel_ir::types::MemSpace,
    pub base_addr: u64,
}

/// Global machine state for one launch: every parameter array, moved out of
/// `Args`, with an assigned simulated address.
///
/// Storage is slot-indexed, not name-keyed: scalar parameters occupy
/// `scalars` in declaration order, array parameters occupy `buffers` /
/// `bindings` in declaration order — the numbering
/// [`Program::lower`](crate::program::Program::lower) resolves parameter
/// names to, so the interpreter reaches every parameter by a vector index.
#[derive(Debug)]
pub(crate) struct GlobalState {
    pub buffers: Vec<Buffer>,
    pub bindings: Vec<ArrayBinding>,
    pub scalars: Vec<ArgValue>,
    /// Array parameter names by slot, to return buffers at unbind.
    array_names: Vec<String>,
}

impl GlobalState {
    /// Bind `args` to the kernel's parameters, assigning addresses.
    pub fn bind(kernel: &Kernel, args: &mut Args) -> Result<GlobalState, ExecError> {
        if let Some(name) = &args.duplicate {
            return Err(crate::fault::SimFault::new(
                &kernel.name,
                crate::fault::FaultKind::ContractViolation {
                    detail: format!("argument {name:?} bound more than once"),
                },
            )
            .into());
        }
        let mut buffers = Vec::new();
        let mut bindings = Vec::new();
        let mut scalars = Vec::new();
        let mut array_names = Vec::new();
        let mut cursor: u64 = 0x1000; // leave page zero unmapped
        for p in &kernel.params {
            match p.kind {
                ParamKind::Scalar(ty) => {
                    let v = args
                        .get(&p.name)
                        .cloned()
                        .ok_or_else(|| ExecError::MissingArg(p.name.clone()))?;
                    let ok = matches!(
                        (&v, ty),
                        (ArgValue::F32(_), Scalar::F32)
                            | (ArgValue::I32(_), Scalar::I32)
                            | (ArgValue::U32(_), Scalar::U32)
                    );
                    if !ok {
                        return Err(ExecError::ArgTypeMismatch {
                            param: p.name.clone(),
                            expected: ty.c_name(),
                        });
                    }
                    scalars.push(v);
                }
                ParamKind::GlobalArray(ty)
                | ParamKind::TexArray(ty)
                | ParamKind::ConstArray(ty) => {
                    let v = args
                        .get_mut(&p.name)
                        .ok_or_else(|| ExecError::MissingArg(p.name.clone()))?;
                    let buf = match v {
                        ArgValue::Buf(b) if b.ty() == ty => {
                            std::mem::replace(b, Buffer::F32(Vec::new()))
                        }
                        _ => {
                            return Err(ExecError::ArgTypeMismatch {
                                param: p.name.clone(),
                                expected: "a buffer of matching element type",
                            })
                        }
                    };
                    let space = match p.kind {
                        ParamKind::GlobalArray(_) => np_kernel_ir::types::MemSpace::Global,
                        ParamKind::TexArray(_) => np_kernel_ir::types::MemSpace::Texture,
                        ParamKind::ConstArray(_) => np_kernel_ir::types::MemSpace::Constant,
                        ParamKind::Scalar(_) => unreachable!(),
                    };
                    bindings.push(ArrayBinding { space, base_addr: cursor });
                    cursor += (buf.len() as u64 * 4 + 255) & !255;
                    cursor += 256;
                    buffers.push(buf);
                    array_names.push(p.name.clone());
                }
            }
        }
        Ok(GlobalState { buffers, bindings, scalars, array_names })
    }

    /// Return buffers to `args` after the launch (so callers see outputs).
    pub fn unbind(self, args: &mut Args) {
        for (name, buf) in self.array_names.into_iter().zip(self.buffers) {
            args.map.insert(name, ArgValue::Buf(buf));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_kernel_ir::KernelBuilder;

    fn kernel() -> Kernel {
        let mut b = KernelBuilder::new("k", 32);
        b.param_global_f32("data");
        b.param_scalar_i32("n");
        b.finish()
    }

    #[test]
    fn binds_and_unbinds() {
        let k = kernel();
        let mut args = Args::new().buf_f32("data", vec![1.0, 2.0]).i32("n", 2);
        let gs = GlobalState::bind(&k, &mut args).unwrap();
        assert_eq!(gs.buffers[0].len(), 2);
        assert!(gs.bindings[0].base_addr >= 0x1000);
        gs.unbind(&mut args);
        assert_eq!(args.get_f32("data").unwrap(), &[1.0, 2.0]);
    }

    #[test]
    fn rebinding_an_argument_is_a_contract_violation() {
        let k = kernel();
        // Same name bound twice: the second `buf_f32` would silently win
        // under last-write-wins; instead binding fails with a typed fault.
        let mut args = Args::new()
            .buf_f32("data", vec![1.0, 2.0])
            .buf_f32("data", vec![9.0, 9.0])
            .i32("n", 2);
        let err = GlobalState::bind(&k, &mut args).unwrap_err();
        let fault = err.fault().expect("typed fault, not a setup error");
        assert!(
            matches!(
                &fault.kind,
                crate::fault::FaultKind::ContractViolation { detail }
                    if detail.contains("\"data\"")
            ),
            "unexpected fault: {fault}"
        );
    }

    #[test]
    fn missing_arg_errors() {
        let k = kernel();
        let mut args = Args::new().buf_f32("data", vec![]);
        assert!(matches!(
            GlobalState::bind(&k, &mut args),
            Err(ExecError::MissingArg(p)) if p == "n"
        ));
    }

    #[test]
    fn type_mismatch_errors() {
        let k = kernel();
        let mut args = Args::new().buf_i32("data", vec![1]).i32("n", 1);
        assert!(matches!(
            GlobalState::bind(&k, &mut args),
            Err(ExecError::ArgTypeMismatch { .. })
        ));
    }

    #[test]
    fn distinct_buffers_get_distinct_addresses() {
        let mut b = KernelBuilder::new("k", 32);
        b.param_global_f32("a");
        b.param_global_f32("bb");
        let k = b.finish();
        let mut args =
            Args::new().buf_f32("a", vec![0.0; 100]).buf_f32("bb", vec![0.0; 100]);
        let gs = GlobalState::bind(&k, &mut args).unwrap();
        let a = gs.bindings[0].base_addr;
        let b_ = gs.bindings[1].base_addr;
        assert!(b_ >= a + 400, "buffers must not overlap: {a} {b_}");
    }
}
