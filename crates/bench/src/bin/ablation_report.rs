//! Prints the cycle-level ablations of the Bonsai design choices
//! (`bonsai_bench::experiments::ablations`; DESIGN.md §4, "Ablations").
//! Run with `--release`; pass a record count to change the array size.

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200_000);
    println!("{}", bonsai_bench::experiments::ablations::render(n));
}
