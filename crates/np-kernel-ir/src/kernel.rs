//! The kernel container: parameters, body, launch geometry hints.

use crate::stmt::{visit_stmts, Stmt};
use crate::types::{Dim3, MemSpace, Scalar};

/// Kind of one kernel parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamKind {
    /// A scalar argument passed by value.
    Scalar(Scalar),
    /// A pointer to a global-memory array of the given element type.
    GlobalArray(Scalar),
    /// A read-only array bound to the texture path (`tex1Dfetch`).
    TexArray(Scalar),
    /// A read-only array in constant memory.
    ConstArray(Scalar),
}

/// One kernel parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    pub name: String,
    pub kind: ParamKind,
}

/// A GPU kernel in IR form.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    pub name: String,
    pub params: Vec<Param>,
    /// The block shape the kernel was written for (baselines are 1-D; the
    /// CUDA-NP transform produces 2-D shapes).
    pub block_dim: Dim3,
    pub body: Vec<Stmt>,
}

/// Everything known about one array name inside a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayInfo {
    pub space: MemSpace,
    pub ty: Scalar,
    /// Static length for declared (shared/local) arrays; None for parameter
    /// arrays whose extent is runtime-determined.
    pub len: Option<u32>,
}

impl Kernel {
    /// Create an empty kernel with a 1-D block hint.
    pub fn new(name: &str, block_x: u32) -> Self {
        Kernel {
            name: name.to_string(),
            params: Vec::new(),
            block_dim: Dim3::x1(block_x),
            body: Vec::new(),
        }
    }

    /// Look up an array by name: parameter arrays first, then declared
    /// shared/local arrays anywhere in the body.
    pub fn array_info(&self, name: &str) -> Option<ArrayInfo> {
        for p in &self.params {
            if p.name == name {
                return match p.kind {
                    ParamKind::GlobalArray(ty) => {
                        Some(ArrayInfo { space: MemSpace::Global, ty, len: None })
                    }
                    ParamKind::TexArray(ty) => {
                        Some(ArrayInfo { space: MemSpace::Texture, ty, len: None })
                    }
                    ParamKind::ConstArray(ty) => {
                        Some(ArrayInfo { space: MemSpace::Constant, ty, len: None })
                    }
                    ParamKind::Scalar(_) => None,
                };
            }
        }
        let mut found = None;
        visit_stmts(&self.body, &mut |s| {
            if let Stmt::DeclArray { name: n, ty, space, len } = s {
                if n == name && found.is_none() {
                    found = Some(ArrayInfo { space: *space, ty: *ty, len: Some(*len) });
                }
            }
        });
        found
    }

    /// Names and infos of all declared (shared / local) arrays.
    pub fn declared_arrays(&self) -> Vec<(String, ArrayInfo)> {
        let mut out = Vec::new();
        visit_stmts(&self.body, &mut |s| {
            if let Stmt::DeclArray { name, ty, space, len } = s {
                out.push((
                    name.clone(),
                    ArrayInfo { space: *space, ty: *ty, len: Some(*len) },
                ));
            }
        });
        out
    }

    /// Total shared-memory bytes declared per block.
    pub fn shared_bytes(&self) -> u32 {
        self.declared_arrays()
            .iter()
            .filter(|(_, i)| i.space == MemSpace::Shared)
            .map(|(_, i)| i.len.unwrap_or(0) * i.ty.bytes())
            .sum()
    }

    /// Total local-memory bytes per thread.
    pub fn local_bytes(&self) -> u32 {
        self.declared_arrays()
            .iter()
            .filter(|(_, i)| i.space == MemSpace::Local)
            .map(|(_, i)| i.len.unwrap_or(0) * i.ty.bytes())
            .sum()
    }

    /// Total elements of register-file arrays per thread.
    pub fn register_array_elems(&self) -> u32 {
        self.declared_arrays()
            .iter()
            .filter(|(_, i)| i.space == MemSpace::Register)
            .map(|(_, i)| i.len.unwrap_or(0))
            .sum()
    }

    /// Whether any loop in the kernel carries an `np` pragma.
    pub fn has_pragma_loops(&self) -> bool {
        self.body.iter().any(Stmt::contains_pragma_loop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::dsl::*;
    use crate::pragma::NpPragma;

    fn sample_kernel() -> Kernel {
        let mut k = Kernel::new("sample", 32);
        k.params.push(Param { name: "a".into(), kind: ParamKind::GlobalArray(Scalar::F32) });
        k.params.push(Param { name: "n".into(), kind: ParamKind::Scalar(Scalar::I32) });
        k.body.push(Stmt::DeclArray {
            name: "tile".into(),
            ty: Scalar::F32,
            space: MemSpace::Shared,
            len: 64,
        });
        k.body.push(Stmt::DeclArray {
            name: "buf".into(),
            ty: Scalar::F32,
            space: MemSpace::Local,
            len: 10,
        });
        k.body.push(Stmt::For {
            var: "i".into(),
            init: i(0),
            bound: p("n"),
            step: i(1),
            body: vec![],
            pragma: Some(NpPragma::parallel_for()),
        });
        k
    }

    #[test]
    fn array_lookup_resolves_spaces() {
        let k = sample_kernel();
        assert_eq!(k.array_info("a").unwrap().space, MemSpace::Global);
        assert_eq!(k.array_info("tile").unwrap().space, MemSpace::Shared);
        assert_eq!(k.array_info("buf").unwrap().space, MemSpace::Local);
        assert!(k.array_info("n").is_none());
        assert!(k.array_info("nope").is_none());
    }

    #[test]
    fn resource_sums() {
        let k = sample_kernel();
        assert_eq!(k.shared_bytes(), 256);
        assert_eq!(k.local_bytes(), 40);
        assert!(k.has_pragma_loops());
    }
}
