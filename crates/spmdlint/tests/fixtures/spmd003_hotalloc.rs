//! SPMD003 fixture: allocation in a registered hot function. // EXPECT: SPMD003
//! The driver analyzes this under the rel path
//! `crates/krylov/src/kernels.rs`, so `axpy_inplace` and `dot` are on the
//! hot registry and the free helper below is not. The marker on line 1
//! is the stale-registry finding: most functions registered for that
//! path do not exist here, exactly as after a rename.

pub fn axpy_inplace(y: &mut [f64], a: f64, x: &[f64]) {
    let scratch: Vec<f64> = Vec::new(); // EXPECT: SPMD003
    let label = format!("axpy{}", y.len()); // EXPECT: SPMD003
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * *xi;
    }
    consume(scratch, label);
}

pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    let pairs = x.iter().zip(y).map(|(a, b)| a * b).collect(); // EXPECT: SPMD003
    sum(pairs)
}

pub fn unregistered_helper_may_allocate(n: usize) -> Vec<f64> {
    let mut out = Vec::new();
    out.resize(n, 0.0);
    out
}

pub fn cast(x: &mut [f64], a: f64) {
    // LINT: alloc-ok(fixture: one-off diagnostic path)
    let label = format!("scale by {a}");
    for xi in x.iter_mut() {
        *xi *= a;
    }
    consume_label(label);
}
