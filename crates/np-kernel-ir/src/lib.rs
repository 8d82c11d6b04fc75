//! # np-kernel-ir — a typed GPU-kernel IR with `np` pragmas
//!
//! The CUDA-NP paper's compiler is a source-to-source CUDA transformer
//! built on Cetus. This crate plays the role of the source language: a
//! small, typed abstract syntax for CUDA kernels — scalar declarations,
//! shared/local/global/constant/texture arrays, structured control flow,
//! `__syncthreads`, the Kepler `__shfl` family — plus the OpenMP-like `np`
//! pragma ([`pragma::NpPragma`]) that marks parallel loops.
//!
//! Kernels are built with [`builder::KernelBuilder`] (see its module docs
//! for a full TMV example), printed as pseudo-CUDA with
//! [`printer::print_kernel`], and analyzed with the dataflow passes in
//! [`analysis`] that the `cuda-np` transform consumes.

pub mod analysis;
pub mod builder;
pub mod expr;
pub mod kernel;
pub mod parse;
pub mod pragma;
pub mod printer;
pub mod stmt;
pub mod types;

pub use builder::KernelBuilder;
pub use expr::{BinOp, Expr, ShflMode, Special, UnOp};
pub use kernel::{ArrayInfo, Kernel, Param, ParamKind};
pub use parse::{parse_kernel, ParseError};
pub use pragma::{NpPragma, NpType, PragmaError, RedOp};
pub use stmt::Stmt;
pub use types::{Dim3, MemSpace, Scalar};
