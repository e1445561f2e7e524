//! Randomized tests of the memory model and data loader.

use bonsai_memsim::{DataLoader, LoaderConfig, Memory, MemoryConfig, Port, WriteDrain};
use bonsai_rng::Rng;

#[test]
fn port_never_overlaps_bursts() {
    let mut rng = Rng::seed_from_u64(0x4E40_0001);
    for _ in 0..48 {
        let bpc = rng.range_u64(1, 127);
        let setup = rng.below_u64(32);
        let n_bursts = rng.range_usize(1, 39);
        let mut port = Port::new(bpc, setup);
        let mut last_end = 0u64;
        let mut issued = 0u64;
        let mut clock = 0u64;
        for _ in 0..n_bursts {
            let gap = rng.below_u64(10_000);
            let bytes = rng.range_u64(1, 99_999);
            clock += gap;
            if let Some(end) = port.try_start(clock, bytes) {
                // A granted burst begins no earlier than the previous end.
                assert!(clock >= last_end, "burst started while busy");
                assert_eq!(end, clock + setup + bytes.div_ceil(bpc));
                last_end = end;
                issued += bytes;
            } else {
                assert!(clock < last_end || bytes == 0, "rejection without cause");
            }
        }
        assert_eq!(port.stats().bytes, issued);
    }
}

#[test]
fn loader_conserves_records() {
    let mut rng = Rng::seed_from_u64(0x4E40_0002);
    for _ in 0..24 {
        let n_leaves = rng.range_usize(1, 11);
        let leaves: Vec<u64> = (0..n_leaves).map(|_| rng.below_u64(50_000)).collect();
        let batch = [256u64, 1024, 4096][rng.below_usize(3)];
        let cfg = LoaderConfig {
            batch_bytes: batch,
            record_bytes: 4,
        };
        let total: u64 = leaves.iter().sum();
        let mut mem = Memory::new(MemoryConfig::ddr4_aws_f1());
        let mut loader = DataLoader::new(cfg, leaves.clone());
        let mut consumed = vec![0u64; leaves.len()];
        let mut cycle = 0u64;
        while !loader.all_exhausted() {
            loader.tick(cycle, &mut mem);
            for (i, c) in consumed.iter_mut().enumerate() {
                let a = loader.available(i);
                loader.consume(i, a);
                *c += a;
            }
            cycle += 1;
            assert!(cycle < 10_000_000, "loader never finished");
        }
        // Every leaf delivered exactly its share, no more, no less.
        assert_eq!(&consumed, &leaves);
        assert_eq!(mem.bytes_read(), total * 4);
    }
}

#[test]
fn drain_conserves_records() {
    let mut rng = Rng::seed_from_u64(0x4E40_0003);
    for _ in 0..24 {
        let n_pushes = rng.below_usize(100);
        let cfg = LoaderConfig::paper_default(4);
        let mut mem = Memory::new(MemoryConfig::ddr4_aws_f1());
        let mut drain = WriteDrain::new(cfg);
        let mut pushed = 0u64;
        let mut cycle = 0u64;
        for _ in 0..n_pushes {
            let n = rng.below_u64(200).min(drain.free_space());
            drain.push_records(n);
            pushed += n;
            drain.tick(cycle, &mut mem);
            cycle += 1;
        }
        drain.set_draining();
        while !drain.is_idle() {
            drain.tick(cycle, &mut mem);
            cycle += 1;
            assert!(cycle < 1_000_000, "drain never idled");
        }
        assert_eq!(drain.completed_records(), pushed);
        assert_eq!(mem.bytes_written(), pushed * 4);
    }
}

#[test]
fn burst_efficiency_is_a_valid_fraction() {
    let mut rng = Rng::seed_from_u64(0x4E40_0004);
    for _ in 0..200 {
        let batch = rng.range_u64(1, 65_535);
        for cfg in [
            MemoryConfig::ddr4_aws_f1(),
            MemoryConfig::hbm_u50(),
            MemoryConfig::throttled_to_ssd(),
        ] {
            let e = cfg.burst_efficiency(batch);
            assert!((0.0..=1.0).contains(&e));
            // Bigger batches never reduce efficiency.
            let e2 = cfg.burst_efficiency(batch * 2);
            assert!(e2 >= e - 1e-12);
        }
    }
}
