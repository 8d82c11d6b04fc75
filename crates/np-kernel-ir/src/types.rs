//! Scalar types, memory spaces, and launch geometry.

/// Scalar element types supported by the IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scalar {
    F32,
    I32,
    U32,
    Bool,
}

impl Scalar {
    /// Size in bytes when stored in memory (Bool is stored as 4 bytes, like
    /// a register-resident predicate spilled to an int).
    pub fn bytes(self) -> u32 {
        4
    }

    /// C-style spelling, used by the pretty-printer.
    pub fn c_name(self) -> &'static str {
        match self {
            Scalar::F32 => "float",
            Scalar::I32 => "int",
            Scalar::U32 => "unsigned int",
            Scalar::Bool => "bool",
        }
    }
}

/// Where an array lives. Scalars always live in registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// Off-chip device memory, visible to every thread.
    Global,
    /// On-chip per-block scratchpad.
    Shared,
    /// Per-thread memory that physically lives off-chip behind the L1.
    Local,
    /// Read-only constant memory with broadcast hardware.
    Constant,
    /// Read-only data fetched through the texture path (`tex1Dfetch`).
    Texture,
    /// A small per-thread array promoted into the register file (the
    /// CUDA-NP partitioned-local-array option of Section 3.3: after
    /// unrolling, constant indices let the compiler keep elements in
    /// registers). Functionally identical to `Local`, but accesses cost
    /// only ALU work and the elements count toward register pressure.
    Register,
}

/// Block / grid dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dim3 {
    pub x: u32,
    pub y: u32,
    pub z: u32,
}

impl Dim3 {
    pub fn new(x: u32, y: u32, z: u32) -> Self {
        Dim3 { x, y, z }
    }

    /// A one-dimensional extent.
    pub fn x1(x: u32) -> Self {
        Dim3 { x, y: 1, z: 1 }
    }

    /// A two-dimensional extent.
    pub fn xy(x: u32, y: u32) -> Self {
        Dim3 { x, y, z: 1 }
    }

    /// Total element count.
    pub fn count(&self) -> u64 {
        self.x as u64 * self.y as u64 * self.z as u64
    }
}

impl Default for Dim3 {
    fn default() -> Self {
        Dim3 { x: 1, y: 1, z: 1 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim3_counts() {
        assert_eq!(Dim3::x1(256).count(), 256);
        assert_eq!(Dim3::xy(32, 8).count(), 256);
        assert_eq!(Dim3::new(4, 4, 4).count(), 64);
        assert_eq!(Dim3::default().count(), 1);
    }

    #[test]
    fn scalar_sizes() {
        assert_eq!(Scalar::F32.bytes(), 4);
        assert_eq!(Scalar::I32.c_name(), "int");
    }
}
