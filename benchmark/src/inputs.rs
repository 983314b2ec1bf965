//! Seeded inputs: the solver never sees the seed, only the vectors made here.
//!
//! Every right-hand side is `RHS_t = R0 + a_t·R1 + b_t·R2` with the matching
//! exact solution `E0 + a_t·E1 + b_t·E2`: `R0/E0` come from the paper's test
//! problem and `R1,R2/E1,E2` from two analytic modes on the same box, mesh and
//! boundary kinds, so the discrete operator is the same for all three and the
//! combination is exact by linearity.

use std::sync::Arc;

use blockgrid::BlockGrid;
use poisson::assemble::{local_exact, local_rhs};
use poisson::{paper_problem, PoissonProblem};

/// SplitMix64: small, seedable, and good enough for load generation.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Exponential with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// Wave numbers of the two analytic modes `ψ = sin(px)·cos(qy)·sin(rz)`.
/// Low enough that a 24³ mesh still resolves them to under a percent.
const MODES: [[f64; 3]; 2] = [[0.31, 0.23, 0.41], [0.19, 0.37, 0.27]];

/// The paper problem's box, mesh and boundary kinds carrying mode `m`.
fn mode_problem(nodes: usize, m: usize) -> PoissonProblem {
    let [p, q, r] = MODES[m];
    let psi = move |x: f64, y: f64, z: f64| (p * x).sin() * (q * y).cos() * (r * z).sin();
    let k2 = p * p + q * q + r * r;
    PoissonProblem {
        rhs: Arc::new(move |x, y, z| k2 * psi(x, y, z)),
        dirichlet: Arc::new(psi),
        neumann_dx: [
            Arc::new(move |x: f64, y: f64, z: f64| {
                p * (p * x).cos() * (q * y).cos() * (r * z).sin()
            }),
            Arc::new(move |x: f64, y: f64, z: f64| {
                -q * (p * x).sin() * (q * y).sin() * (r * z).sin()
            }),
            Arc::new(move |x: f64, y: f64, z: f64| {
                r * (p * x).sin() * (q * y).cos() * (r * z).cos()
            }),
        ],
        exact: Some(Arc::new(psi)),
        ..paper_problem(nodes)
    }
}

/// Mode amplitudes are drawn around this scale so the modes weigh about as
/// much in the solution as the paper problem's own `x²yz` term (~1e5).
pub const AMPLITUDE: f64 = 1.0e5;

/// The seeded sequence of mode amplitudes `(a_t, b_t)`: independent draws in
/// `[0.5, 1.5]·AMPLITUDE`, or — for a time-stepping stream — a smooth random
/// walk whose steps move both by at most 2 % of the scale, reflected into the
/// same interval. Every rank builds its own copy from the seed and steps it
/// in lockstep.
pub struct Amplitudes {
    rng: Rng,
    walk: Option<(f64, f64)>,
}

impl Amplitudes {
    pub fn new(seed: u64, stream: bool) -> Self {
        let mut rng = Rng::new(seed);
        let walk = stream.then(|| (rng.range(0.5, 1.5), rng.range(0.5, 1.5)));
        Self { rng, walk }
    }

    pub fn next(&mut self) -> (f64, f64) {
        let reflect = |v: f64| {
            if v < 0.5 {
                1.0 - v
            } else if v > 1.5 {
                3.0 - v
            } else {
                v
            }
        };
        let (a, b) = match self.walk {
            Some((a, b)) => {
                let step = (
                    reflect(a + self.rng.range(-0.02, 0.02)),
                    reflect(b + self.rng.range(-0.02, 0.02)),
                );
                self.walk = Some(step);
                step
            }
            None => (self.rng.range(0.5, 1.5), self.rng.range(0.5, 1.5)),
        };
        (AMPLITUDE * a, AMPLITUDE * b)
    }
}

/// One rank's base vectors; every input of a workload is a combination.
pub struct Basis {
    rhs: [Vec<f64>; 3],
    exact: [Vec<f64>; 3],
}

impl Basis {
    /// Assemble the three right-hand sides and exact solutions on `grid`.
    pub fn new(nodes: usize, grid: &BlockGrid) -> Self {
        let problems = [
            paper_problem(nodes),
            mode_problem(nodes, 0),
            mode_problem(nodes, 1),
        ];
        Self {
            rhs: problems.each_ref().map(|p| local_rhs(p, grid)),
            exact: problems.each_ref().map(|p| local_exact(p, grid)),
        }
    }

    /// Number of local unknowns.
    pub fn len(&self) -> usize {
        self.rhs[0].len()
    }

    /// `out ← R0 + a·R1 + b·R2`.
    pub fn rhs_into(&self, (a, b): (f64, f64), out: &mut Vec<f64>) {
        combine(&self.rhs, a, b, out);
    }

    /// `R0 + a·R1 + b·R2` as a fresh vector.
    pub fn rhs(&self, amp: (f64, f64)) -> Vec<f64> {
        let mut out = Vec::new();
        self.rhs_into(amp, &mut out);
        out
    }

    /// Squared L2 error of `got` against `E0 + a·E1 + b·E2` and the squared
    /// norm of that reference, over this rank's unknowns.
    pub fn error_sq(&self, (a, b): (f64, f64), got: &[f64]) -> (f64, f64) {
        assert_eq!(got.len(), self.len(), "solution length mismatch");
        let [e0, e1, e2] = &self.exact;
        let (mut err, mut norm) = (0.0, 0.0);
        for i in 0..got.len() {
            let e = e0[i] + a * e1[i] + b * e2[i];
            let d = got[i] - e;
            err += d * d;
            norm += e * e;
        }
        (err, norm)
    }
}

fn combine(v: &[Vec<f64>; 3], a: f64, b: f64, out: &mut Vec<f64>) {
    let [v0, v1, v2] = v;
    out.clear();
    out.extend((0..v0.len()).map(|i| v0[i] + a * v1[i] + b * v2[i]));
}
