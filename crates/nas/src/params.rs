//! NPB 2.3 problem classes and their published parameters.

/// NPB problem classes used in the paper (plus S for tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NasClass {
    /// Sample (tiny, for tests).
    S,
    /// Class A.
    A,
    /// Class B (the paper's cluster/grid experiments).
    B,
    /// Class C (the paper's Myrinet experiments).
    C,
}

impl NasClass {
    /// Single-letter label.
    pub fn letter(self) -> char {
        match self {
            NasClass::S => 'S',
            NasClass::A => 'A',
            NasClass::B => 'B',
            NasClass::C => 'C',
        }
    }
}

/// BT parameters: cubic grid dimension, iterations, total flop count.
pub struct BtParams {
    /// Grid points per dimension.
    pub problem_size: u64,
    /// Time steps.
    pub niter: u64,
    /// Total floating-point operations of the full benchmark.
    pub total_flops: f64,
}

impl BtParams {
    /// NPB 2.3 published values (flop totals from the NPB "Mop/s total"
    /// accounting).
    pub fn of(class: NasClass) -> BtParams {
        match class {
            NasClass::S => BtParams {
                problem_size: 12,
                niter: 60,
                total_flops: 0.3e9,
            },
            NasClass::A => BtParams {
                problem_size: 64,
                niter: 200,
                total_flops: 168.3e9,
            },
            NasClass::B => BtParams {
                problem_size: 102,
                niter: 200,
                total_flops: 721.5e9,
            },
            NasClass::C => BtParams {
                problem_size: 162,
                niter: 200,
                total_flops: 2940.0e9,
            },
        }
    }
}

/// CG parameters: matrix order, outer iterations, total flop count.
pub struct CgParams {
    /// Matrix order.
    pub na: u64,
    /// Outer iterations.
    pub niter: u64,
    /// Inner conjugate-gradient iterations per outer iteration.
    pub cgitmax: u64,
    /// Total floating-point operations.
    pub total_flops: f64,
}

impl CgParams {
    /// NPB 2.3 published values.
    pub fn of(class: NasClass) -> CgParams {
        match class {
            NasClass::S => CgParams {
                na: 1400,
                niter: 15,
                cgitmax: 25,
                total_flops: 0.07e9,
            },
            NasClass::A => CgParams {
                na: 14000,
                niter: 15,
                cgitmax: 25,
                total_flops: 1.5e9,
            },
            NasClass::B => CgParams {
                na: 75000,
                niter: 75,
                cgitmax: 25,
                total_flops: 54.9e9,
            },
            NasClass::C => CgParams {
                na: 150000,
                niter: 75,
                cgitmax: 25,
                total_flops: 143.3e9,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_grow_monotonically() {
        for cl in [
            (NasClass::S, NasClass::A),
            (NasClass::A, NasClass::B),
            (NasClass::B, NasClass::C),
        ] {
            assert!(BtParams::of(cl.0).total_flops < BtParams::of(cl.1).total_flops);
            assert!(CgParams::of(cl.0).na < CgParams::of(cl.1).na);
        }
    }

    #[test]
    fn paper_classes_match_npb() {
        let b = BtParams::of(NasClass::B);
        assert_eq!(b.problem_size, 102);
        assert_eq!(b.niter, 200);
        let c = CgParams::of(NasClass::C);
        assert_eq!(c.na, 150000);
        assert_eq!(c.niter, 75);
    }
}
