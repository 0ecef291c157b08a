//! Vestiges of the retired kernel-backend choice.
//!
//! Every LU inner loop — the substitution fold and the batched variant-lane
//! update and divide — has one portable code path, so there is no backend to
//! select. The names below survive only so existing callers keep compiling;
//! none of them selects anything.

use std::fmt;

/// Name of the environment variable that once chose the kernel backend.
/// It is accepted and ignored: nothing in this workspace reads it.
pub const KERNEL_ENV: &str = "LOOPSCOPE_KERNEL";

/// The implementation of the LU inner loops. One variant: every
/// factorization and solve runs the portable scalar loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelBackend {
    /// The portable scalar loops.
    Scalar,
}

impl KernelBackend {
    /// Short lowercase name: `"scalar"`.
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
        }
    }
}

impl fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_round_trip() {
        assert_eq!(KernelBackend::Scalar.name(), "scalar");
        assert_eq!(KernelBackend::Scalar.to_string(), "scalar");
    }
}
