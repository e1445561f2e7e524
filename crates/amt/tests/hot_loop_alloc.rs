//! The simulation hot loop must be allocation-free.
//!
//! Every buffer a pass touches per cycle — leaf FIFOs, merger output
//! FIFOs, loader/drain in-flight queues, the output stream — is sized
//! at construction, so driving a pass to completion (on either loop)
//! must perform zero heap allocations after `PassSim::new`. The counting
//! global allocator of `common` enforces this; it is armed only around
//! the simulation loop, so construction and teardown may allocate freely.
//!
//! The contract applies to the production loop only: the opt-in
//! `sanitize` feature weaves diagnostic probes into the cycle loop
//! that record findings on the heap by design, so the whole file is
//! compiled out under that feature.
#![cfg(not(feature = "sanitize"))]

mod common;

use bonsai_amt::passsim::PassSim;
use bonsai_amt::{AmtConfig, SimEngineConfig};
use bonsai_gensort::dist::uniform_u32;
use bonsai_memsim::Memory;
use bonsai_records::run::RunSet;
use bonsai_records::{Record, U32Rec};

fn drive(reference: bool) -> u64 {
    let cfg = SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4);
    let data = uniform_u32(30_000, 9);
    let sanitized: Vec<U32Rec> = data.into_iter().map(Record::sanitize).collect();
    let runs = RunSet::from_chunks(sanitized, cfg.initial_run_len());
    let mut sim = PassSim::new(&cfg, runs, 16);
    let mut memory = Memory::new(cfg.memory);

    let ((), allocs) = common::count_allocs(|| {
        let mut cycle = 0u64;
        while !sim.is_done() {
            if reference {
                sim.tick(cycle, &mut memory);
                cycle += 1;
            } else {
                cycle += sim.advance(cycle, &mut memory);
            }
        }
    });

    // Teardown sanity (unarmed): the pass actually ran to completion.
    let (out_runs, pass) = sim.finish(1);
    assert_eq!(out_runs.len(), 30_000);
    assert!(pass.cycles > 0);
    allocs
}

#[test]
fn simulation_loop_is_allocation_free_on_both_paths() {
    assert_eq!(drive(false), 0, "fast path allocated in the hot loop");
    assert_eq!(drive(true), 0, "reference loop allocated in the hot loop");
}
