//! Cycle-level ports and banked memory.

use crate::config::MemoryConfig;

/// Transfer statistics for one port.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortStats {
    /// Total payload bytes transferred.
    pub bytes: u64,
    /// Cycles the port was busy (transfer + burst setup).
    pub busy_cycles: u64,
    /// Number of bursts issued.
    pub bursts: u64,
}

/// A single direction of one memory bank: moves a fixed number of bytes
/// per cycle, one burst at a time, charging a setup latency per burst.
#[derive(Debug, Clone)]
pub struct Port {
    bytes_per_cycle: u64,
    setup_cycles: u64,
    free_at: u64,
    stats: PortStats,
}

impl Port {
    /// Creates a port moving `bytes_per_cycle` with `setup_cycles` per
    /// burst.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` is zero.
    pub fn new(bytes_per_cycle: u64, setup_cycles: u64) -> Self {
        assert!(bytes_per_cycle > 0, "port bandwidth must be positive");
        Self {
            bytes_per_cycle,
            setup_cycles,
            free_at: 0,
            stats: PortStats::default(),
        }
    }

    /// Port bandwidth in bytes per cycle.
    pub fn bytes_per_cycle(&self) -> u64 {
        self.bytes_per_cycle
    }

    /// Returns `true` when the port can accept a burst at `cycle`.
    pub(crate) fn is_free(&self, cycle: u64) -> bool {
        self.free_at <= cycle
    }

    /// First cycle at which the port becomes free.
    pub fn free_at(&self) -> u64 {
        self.free_at
    }

    /// Starts a burst of `bytes` at `cycle`; returns the completion cycle.
    ///
    /// Returns `None` (and transfers nothing) if the port is still busy.
    pub fn try_start(&mut self, cycle: u64, bytes: u64) -> Option<u64> {
        if !self.is_free(cycle) || bytes == 0 {
            return None;
        }
        let duration = self.setup_cycles + bytes.div_ceil(self.bytes_per_cycle);
        self.free_at = cycle + duration;
        self.stats.bytes += bytes;
        self.stats.busy_cycles += duration;
        self.stats.bursts += 1;
        Some(self.free_at)
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> PortStats {
        self.stats
    }

    /// Fraction of `elapsed_cycles` the port spent busy.
    pub fn utilization(&self, elapsed_cycles: u64) -> f64 {
        if elapsed_cycles == 0 {
            0.0
        } else {
            self.stats.busy_cycles as f64 / elapsed_cycles as f64
        }
    }
}

/// A banked off-chip memory: each bank has one read port and one write
/// port that operate concurrently (the F1 DDR4 of §VI-A reads and writes
/// 8 GB/s per bank simultaneously).
#[derive(Debug, Clone)]
pub struct Memory {
    config: MemoryConfig,
    read_ports: Vec<Port>,
    write_ports: Vec<Port>,
}

impl Memory {
    /// Builds a memory from its configuration: idle ports, zeroed
    /// statistics.
    ///
    /// # Panics
    ///
    /// Panics if `config.banks` is zero.
    pub fn new(config: MemoryConfig) -> Self {
        assert!(config.banks > 0, "memory needs at least one bank");
        let setup = config.burst_setup_cycles;
        let ports = |bytes_per_cycle| vec![Port::new(bytes_per_cycle, setup); config.banks];
        Self {
            config,
            read_ports: ports(config.read_bytes_per_cycle),
            write_ports: ports(config.write_bytes_per_cycle),
        }
    }

    /// Returns the memory to its just-built state — idle ports, zeroed
    /// statistics — without touching the heap.
    pub fn reset(&mut self) {
        for port in self.read_ports.iter_mut().chain(&mut self.write_ports) {
            *port = Port::new(port.bytes_per_cycle, port.setup_cycles);
        }
    }

    /// The configuration this memory was built from.
    pub fn config(&self) -> &MemoryConfig {
        &self.config
    }

    /// Number of banks.
    pub fn banks(&self) -> usize {
        self.config.banks
    }

    /// Mutable access to bank `i`'s read port.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.banks()`.
    pub fn read_port_mut(&mut self, i: usize) -> &mut Port {
        &mut self.read_ports[i]
    }

    /// Mutable access to bank `i`'s write port.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.banks()`.
    pub fn write_port_mut(&mut self, i: usize) -> &mut Port {
        &mut self.write_ports[i]
    }

    /// Finds any free read port at `cycle`, returning its index.
    pub fn free_read_port(&self, cycle: u64) -> Option<usize> {
        self.read_ports.iter().position(|p| p.is_free(cycle))
    }

    /// Finds any free write port at `cycle`, returning its index.
    pub fn free_write_port(&self, cycle: u64) -> Option<usize> {
        self.write_ports.iter().position(|p| p.is_free(cycle))
    }

    /// Earliest `free_at` across the read ports — the first cycle at
    /// which *some* read port can accept a new burst. A port that is
    /// already free reports its (past) `free_at`, so callers wanting a
    /// strictly future event must clamp with `max(cycle + 1)`.
    pub fn next_read_port_free(&self) -> Option<u64> {
        self.read_ports.iter().map(Port::free_at).min()
    }

    /// Earliest `free_at` across the write ports (see
    /// [`Memory::next_read_port_free`]).
    pub fn next_write_port_free(&self) -> Option<u64> {
        self.write_ports.iter().map(Port::free_at).min()
    }

    /// Earliest cycle strictly after `cycle` at which any port changes
    /// availability — the memory's contribution to the event-driven
    /// fast-forward bound. With every port busy this is the first burst
    /// completion; with idle ports it degrades to `cycle + 1` (the
    /// memory itself cannot say when a client will use them).
    pub fn next_event_cycle(&self, cycle: u64) -> u64 {
        self.next_read_port_free()
            .into_iter()
            .chain(self.next_write_port_free())
            .min()
            .unwrap_or(0)
            .max(cycle + 1)
    }

    /// Total bytes read across all banks.
    pub fn bytes_read(&self) -> u64 {
        self.read_ports.iter().map(|p| p.stats().bytes).sum()
    }

    /// Total bytes written across all banks.
    pub fn bytes_written(&self) -> u64 {
        self.write_ports.iter().map(|p| p.stats().bytes).sum()
    }

    /// Achieved read bandwidth as a fraction of peak over
    /// `elapsed_cycles`.
    pub fn read_efficiency(&self, elapsed_cycles: u64) -> f64 {
        if elapsed_cycles == 0 {
            return 0.0;
        }
        let peak = self.config.peak_read_bytes_per_cycle() * elapsed_cycles;
        self.bytes_read() as f64 / peak as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_burst_timing() {
        let mut p = Port::new(32, 8);
        // 4096 bytes at 32 B/cycle = 128 cycles + 8 setup.
        assert_eq!(p.try_start(0, 4096), Some(136));
        assert!(!p.is_free(135));
        assert!(p.is_free(136));
        assert_eq!(p.stats().bytes, 4096);
        assert_eq!(p.stats().bursts, 1);
    }

    #[test]
    fn port_rejects_overlapping_bursts() {
        let mut p = Port::new(32, 0);
        assert!(p.try_start(0, 64).is_some());
        assert_eq!(p.try_start(1, 64), None);
        assert!(p.try_start(2, 64).is_some());
    }

    #[test]
    fn port_zero_bytes_is_noop() {
        let mut p = Port::new(32, 8);
        assert_eq!(p.try_start(0, 0), None);
        assert_eq!(p.stats().bursts, 0);
    }

    #[test]
    fn memory_tracks_per_bank_ports() {
        let mut m = Memory::new(MemoryConfig::ddr4_aws_f1());
        assert_eq!(m.banks(), 4);
        assert_eq!(m.free_read_port(0), Some(0));
        m.read_port_mut(0).try_start(0, 4096).expect("free port");
        assert_eq!(m.free_read_port(0), Some(1));
        // Writes are independent of reads.
        assert_eq!(m.free_write_port(0), Some(0));
        assert_eq!(m.bytes_read(), 4096);
        assert_eq!(m.bytes_written(), 0);
    }

    #[test]
    fn reset_memory_is_idle() {
        let mut m = Memory::new(MemoryConfig::ddr4_aws_f1());
        m.read_port_mut(0).try_start(0, 4096).expect("free port");
        m.write_port_mut(0).try_start(0, 4096).expect("free port");
        m.reset();
        assert_eq!(m.banks(), 4);
        assert_eq!((m.bytes_read(), m.bytes_written()), (0, 0));
        assert_eq!(m.free_read_port(0), Some(0));
        assert_eq!(m.free_write_port(0), Some(0));
    }

    #[test]
    fn efficiency_accounts_for_setup_overhead() {
        let mut m = Memory::new(MemoryConfig::ddr4_single_bank());
        let done = m.read_port_mut(0).try_start(0, 4096).expect("free");
        let eff = m.read_efficiency(done);
        // 128 transfer cycles out of 136 total.
        assert!((eff - 128.0 / 136.0).abs() < 1e-9, "eff = {eff}");
    }

    #[test]
    fn next_port_free_tracks_burst_completions() {
        let mut m = Memory::new(MemoryConfig::ddr4_single_bank());
        // Idle memory: ports are free "at 0", event clamps to cycle + 1.
        assert_eq!(m.next_read_port_free(), Some(0));
        assert_eq!(m.next_event_cycle(41), 42);
        // One busy read port: its completion is the next event.
        let done = m.read_port_mut(0).try_start(0, 4096).expect("free");
        assert_eq!(m.next_read_port_free(), Some(done));
        // The idle write port keeps the overall event bound at cycle + 1.
        assert_eq!(m.next_event_cycle(0), 1);
        let wdone = m.write_port_mut(0).try_start(5, 4096).expect("free");
        assert_eq!(m.next_write_port_free(), Some(wdone));
        // Both directions busy: the earliest completion wins.
        assert_eq!(m.next_event_cycle(10), done.min(wdone));
    }

    #[test]
    fn utilization_is_bounded() {
        let mut p = Port::new(32, 8);
        let done = p.try_start(0, 1024).expect("free");
        assert!(p.utilization(done) <= 1.0);
        assert!(p.utilization(done) > 0.0);
        assert_eq!(p.utilization(0), 0.0);
    }
}
