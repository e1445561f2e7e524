//! Measures the runnable host-CPU sorters (std, radix, AMT functional
//! on every core).
//! Run with `--release`; pass a record count to change scale.

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4_000_000);
    print!("{}", bonsai_bench::experiments::host_baseline::render(n));
}
