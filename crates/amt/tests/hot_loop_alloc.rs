//! The simulation hot loop must be allocation-free.
//!
//! Every buffer a pass touches per cycle — leaf FIFOs, merger output
//! FIFOs, loader/drain in-flight queues, the output stream — is sized
//! at construction, so driving a pass to completion (on either loop)
//! must perform zero heap allocations after `PassSim::new`. The counting
//! global allocator of `common` enforces this; it is armed only around
//! the simulation loop, so construction and teardown may allocate freely.
//! `PassSim::reset` extends the contract to the next group: re-arming a
//! scratch whose buffers are already large enough allocates nothing.
//!
//! The contract applies to the production loop only: the opt-in
//! `sanitize` feature weaves diagnostic probes into the cycle loop
//! that record findings on the heap by design, so the whole file is
//! compiled out under that feature.
#![cfg(not(feature = "sanitize"))]

mod common;

use bonsai_amt::passsim::PassSim;
use bonsai_amt::{AmtConfig, PassReport, SimEngineConfig};
use bonsai_gensort::dist::uniform_u32;
use bonsai_memsim::Memory;
use bonsai_records::run::RunSet;
use bonsai_records::{Record, U32Rec};

fn config() -> SimEngineConfig {
    SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4)
}

fn presorted_runs(cfg: &SimEngineConfig, n: usize, seed: u64) -> RunSet<U32Rec> {
    let sanitized: Vec<U32Rec> = uniform_u32(n, seed)
        .into_iter()
        .map(Record::sanitize)
        .collect();
    RunSet::from_chunks(sanitized, cfg.initial_run_len())
}

fn run_to_completion(sim: &mut PassSim<U32Rec>, memory: &mut Memory, reference: bool) {
    let mut cycle = 0u64;
    while !sim.is_done() {
        if reference {
            sim.tick(cycle, memory);
            cycle += 1;
        } else {
            cycle += sim.advance(cycle, memory);
        }
    }
}

/// The finished pass's output records, run starts and report.
fn finish(sim: &PassSim<U32Rec>) -> (Vec<U32Rec>, Vec<usize>, PassReport) {
    let (mut records, mut starts) = (Vec::new(), Vec::new());
    let pass = sim.finish(1, &mut records, &mut starts);
    (records, starts, pass)
}

fn drive(reference: bool) -> u64 {
    let cfg = config();
    let runs = presorted_runs(&cfg, 30_000, 9);
    let mut sim = PassSim::new(&cfg, &runs, 0..runs.num_runs(), 16);
    let mut memory = Memory::new(cfg.memory);

    let ((), allocs) = common::count_allocs(|| run_to_completion(&mut sim, &mut memory, reference));

    // Teardown sanity (unarmed): the pass actually ran to completion.
    let (out, _, pass) = finish(&sim);
    assert_eq!(out.len(), 30_000);
    assert!(pass.cycles > 0);
    allocs
}

#[test]
fn simulation_loop_is_allocation_free_on_both_paths() {
    assert_eq!(drive(false), 0, "fast path allocated in the hot loop");
    assert_eq!(drive(true), 0, "reference loop allocated in the hot loop");
}

/// A scratch that has run one group runs the next — fewer records, a
/// narrower fan-in, a smaller bank view, so every stream fits what the
/// first group left allocated — without touching the heap at all: the
/// counter is armed around `reset` and the loop together.
#[test]
fn reset_scratch_runs_a_second_group_without_allocating() {
    for reference in [false, true] {
        let cfg = config();
        let first = presorted_runs(&cfg, 30_000, 9);
        let mut sim = PassSim::new(&cfg, &first, 0..first.num_runs(), 16);
        let mut memory = Memory::new(cfg.memory.shard_view(16));
        run_to_completion(&mut sim, &mut memory, reference);

        let second = presorted_runs(&cfg, 9_000, 10);
        let all = 0..second.num_runs();
        let ((), allocs) = common::count_allocs(|| {
            sim.reset(&second, all.clone(), 8);
            memory.reset(cfg.memory.shard_view(8));
            run_to_completion(&mut sim, &mut memory, reference);
        });
        assert_eq!(
            allocs, 0,
            "reset + loop allocated (reference = {reference})"
        );

        // Unarmed: the reused scratch computed what a new one computes.
        let mut fresh = PassSim::new(&cfg, &second, all, 8);
        let mut fresh_memory = Memory::new(cfg.memory.shard_view(8));
        run_to_completion(&mut fresh, &mut fresh_memory, reference);
        let reused = finish(&sim);
        assert_eq!(reused.0.len(), 9_000);
        assert_eq!(reused, finish(&fresh));
        assert_eq!(memory.bytes_read(), fresh_memory.bytes_read());
        assert_eq!(memory.bytes_written(), fresh_memory.bytes_written());
    }
}
