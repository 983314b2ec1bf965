//! SPMD launch helper.

use accel::{Recorder, Scalar};

use crate::thread_comm::ThreadComm;
use crate::types::{Communicator, ReduceOrder};

/// Run `f` as an SPMD program on `size` ranks (one OS thread per rank) and
/// collect the per-rank return values in rank order.
///
/// This is the reproduction's `mpirun`: every closure invocation receives
/// its own [`ThreadComm`] handle, exactly one per rank.
pub fn run_ranks<T, R, F>(size: usize, order: ReduceOrder, f: F) -> Vec<R>
where
    T: Scalar,
    R: Send,
    F: Fn(ThreadComm<T>) -> R + Sync,
{
    run_ranks_recorded(size, order, vec![Recorder::disabled(); size], f)
}

/// Like [`run_ranks`], with one caller-provided event [`Recorder`] per rank
/// (rank `r` gets `recorders[r]`, so the caller can inspect per-rank event
/// streams afterwards).
pub fn run_ranks_recorded<T, R, F>(
    size: usize,
    order: ReduceOrder,
    recorders: Vec<Recorder>,
    f: F,
) -> Vec<R>
where
    T: Scalar,
    R: Send,
    F: Fn(ThreadComm<T>) -> R + Sync,
{
    let comms = ThreadComm::<T>::world(size, order, recorders);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|comm| {
                std::thread::Builder::new()
                    .name(format!("rank-{}", comm.rank()))
                    .spawn_scoped(scope, move || f(comm))
                    .expect("failed to spawn rank thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Communicator;

    #[test]
    fn results_are_in_rank_order() {
        let ranks = run_ranks::<f64, _, _>(8, ReduceOrder::RankOrder, |comm| comm.rank());
        assert_eq!(ranks, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn single_rank_world_works() {
        let out = run_ranks::<f64, _, _>(1, ReduceOrder::RankOrder, |comm| {
            assert_eq!(comm.size(), 1);
            comm.all_reduce_scalar(4.0)
        });
        assert_eq!(out, vec![4.0]);
    }

    #[test]
    fn recorded_variant_wires_recorders_by_rank() {
        let recorders: Vec<Recorder> = (0..3).map(|_| Recorder::enabled()).collect();
        let handles = recorders.clone();
        run_ranks_recorded::<f64, _, _>(3, ReduceOrder::RankOrder, recorders, |comm| {
            let mut v = [1.0];
            comm.all_reduce(&mut v, crate::ReduceOp::Sum);
        });
        assert_eq!(handles[0].len(), 1);
        assert_eq!(handles[1].len(), 1);
        assert_eq!(handles[2].len(), 1);
    }
}

#[cfg(test)]
mod request_tests {
    use super::*;
    use crate::types::{Communicator, ReduceOp};

    #[test]
    fn irecv_wait_matches_blocking_recv_semantics() {
        run_ranks::<f64, _, _>(2, ReduceOrder::RankOrder, |comm| {
            if comm.rank() == 0 {
                // post receives BEFORE the peers send — must still match
                let r1 = comm.irecv(1, 5);
                let r2 = comm.irecv(1, 5);
                comm.barrier();
                let first = comm.wait(r1);
                let second = comm.wait(r2);
                assert_eq!(first, vec![1.0]);
                assert_eq!(second, vec![2.0]);
            } else {
                comm.barrier();
                comm.send(0, 5, vec![1.0]);
                comm.send(0, 5, vec![2.0]);
            }
        });
    }

    #[test]
    fn wait_all_returns_in_request_order() {
        run_ranks::<f64, _, _>(3, ReduceOrder::RankOrder, |comm| {
            if comm.rank() == 0 {
                let reqs = vec![comm.irecv(2, 9), comm.irecv(1, 9)];
                let msgs = comm.wait_all(reqs);
                assert_eq!(msgs, vec![vec![2.0], vec![1.0]]);
            } else {
                comm.send(0, 9, vec![comm.rank() as f64]);
            }
            let mut v = [1.0];
            comm.all_reduce(&mut v, ReduceOp::Sum);
            assert_eq!(v[0], 3.0);
        });
    }
}
