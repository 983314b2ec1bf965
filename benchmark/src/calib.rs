//! The host-speed reference: a fixed piece of work owned by the benchmark.
//!
//! This host is a small VM on a shared machine. Neighbours slow it down by up
//! to half for minutes at a time (same executable, same seed: `tts_s` of the
//! serial 64³ solve read 0.64 s one hour and 0.92 s another, with no steal time
//! on the books), so a wall-clock time says more about the neighbours than
//! about the code. The benchmark therefore runs this reference sweep before and
//! after every timed sample and reports each sample divided by how much slower
//! than its frozen quiet-host time the reference ran just then.
//!
//! The reference must not change when the repository's code does, so it calls
//! nothing from the crates: it is a seven-point average over a cube plus an
//! axpy, the same shape of work the solver's sweeps do, on arrays as large as
//! the workload's own fields (so it sits in the same level of the cache
//! hierarchy), on as many threads as the workload computes with (so it sees the
//! same cores).

use std::time::Instant;

/// The arrays one thread sweeps.
struct Lane {
    u: Vec<f64>,
    v: Vec<f64>,
    w: Vec<f64>,
}

/// The reference work of one workload.
pub struct Reference {
    lanes: Vec<Lane>,
    dims: [usize; 3],
    sweeps: usize,
}

impl Reference {
    /// `threads` lanes of three `dims`-shaped arrays each, swept `sweeps`
    /// times per sample. Touches every page.
    pub fn new(threads: usize, dims: [usize; 3], sweeps: usize) -> Self {
        let n = dims[0] * dims[1] * dims[2];
        let lanes = (0..threads)
            .map(|t| Lane {
                u: (0..n).map(|i| ((i + t) % 17) as f64 / 17.0).collect(),
                v: vec![0.0; n],
                w: vec![0.0; n],
            })
            .collect();
        Self {
            lanes,
            dims,
            sweeps,
        }
    }

    /// Run the reference once on every lane at the same time; seconds until
    /// the slowest lane is done.
    pub fn sample(&mut self) -> f64 {
        let (dims, sweeps) = (self.dims, self.sweeps);
        let t0 = Instant::now();
        let (mine, others) = self.lanes.split_first_mut().expect("at least one lane");
        std::thread::scope(|s| {
            for lane in others {
                s.spawn(move || sweep(lane, dims, sweeps));
            }
            sweep(mine, dims, sweeps);
        });
        t0.elapsed().as_secs_f64()
    }
}

/// `sweeps` times: `v` = seven-point average of `u`, `w += v / 1024`, then
/// `u` and `v` change places. The weights sum to one, so values stay bounded.
fn sweep(lane: &mut Lane, [nx, ny, nz]: [usize; 3], sweeps: usize) {
    let plane = nx * ny;
    for _ in 0..sweeps {
        let (u, v, w) = (&lane.u, &mut lane.v, &mut lane.w);
        for k in 1..nz - 1 {
            for j in 1..ny - 1 {
                let at = k * plane + j * nx;
                let m = nx - 2;
                let row = |from: usize| &u[from..from + m];
                let (c, xm, xp) = (row(at + 1), row(at), row(at + 2));
                let (ym, yp) = (row(at + 1 - nx), row(at + 1 + nx));
                let (zm, zp) = (row(at + 1 - plane), row(at + 1 + plane));
                let out = &mut v[at + 1..at + 1 + m];
                let acc = &mut w[at + 1..at + 1 + m];
                for i in 0..m {
                    let r = 0.4 * c[i] + 0.1 * (xm[i] + xp[i] + ym[i] + yp[i] + zm[i] + zp[i]);
                    out[i] = r;
                    acc[i] += r * (1.0 / 1024.0);
                }
            }
        }
        std::mem::swap(&mut lane.u, &mut lane.v);
    }
    std::hint::black_box(&lane.w);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_stays_bounded_and_runs_every_lane() {
        let mut r = Reference::new(2, [8, 7, 6], 5);
        assert!(r.sample() > 0.0);
        for lane in &r.lanes {
            assert!(lane.u.iter().all(|x| (0.0..=1.0).contains(x)));
            assert!(lane.w.iter().any(|x| *x > 0.0));
        }
    }
}
