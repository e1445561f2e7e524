//! Static configuration analyzer and diagnostic framework for Bonsai.
//!
//! The analytical model (PAPER.md, §IV) exists so that a configuration
//! can be proven sane *before* committing to a multi-minute cycle
//! simulation or an FPGA build. This crate is the substrate for that
//! guarantee: a [`Diagnostic`] type with **stable `BONxxx` codes**, a
//! machine-readable [`codes`] registry, and dependency-free numeric
//! checks that the configuration types in `bonsai-amt`, `bonsai-memsim`
//! and `bonsai-model` call from their `try_new` constructors.
//!
//! The code ranges, one per layer:
//!
//! | Range      | Layer                | Example |
//! |------------|----------------------|---------|
//! | `BON00x`   | AMT / record shape   | [`codes::P_NOT_POWER_OF_TWO`] |
//! | `BON01x`   | Loader / memory      | [`codes::BATCH_BELOW_BUS_WIDTH`] |
//! | `BON02x`   | Resource model       | [`codes::LUT_BUDGET_EXCEEDED`] |
//! | `BON03x`   | Pipeline dataflow    | [`codes::GRAPH_FIFO_BELOW_FLUSH`] |
//! | `BON04x`   | Simulation runtime   | [`codes::SIM_PASS_LIVELOCK`] |
//! | `BON05x`   | Runtime topology     | [`codes::RUNTIME_QUEUE_BELOW_WORKERS`] |
//! | `BON06x`   | Static throughput floor | [`codes::THROUGHPUT_FLOOR_UNSOUND`] |
//! | `BON07x`   | Wire protocol        | [`codes::WIRE_BAD_MAGIC`] |
//! | `BON09x`   | External sorter      | [`codes::EXTERNAL_SORTER_INVALID`] |
//! | `BON1xx`   | Simulation sanitizer | [`codes::SAN_FIFO_OVERFLOW`] |
//!
//! Every code is catalogued with cause and fix in
//! [`docs/diagnostics.md`](https://github.com/bonsai-sort/bonsai/blob/main/docs/diagnostics.md);
//! a test in this crate keeps that catalogue in sync with the registry.
//!
//! The crate is this one file: [`Diagnostic`], the [`codes`] registry
//! and the `check_*` functions. Checks that need the configuration
//! types live with those types and only report through this crate: the
//! `BON03x` dataflow checks, for one, are closed forms over an engine
//! configuration in `bonsai_model::check::analyze_engine`.
//!
//! This crate deliberately has **no dependencies** — not even on
//! `bonsai-records` — so that every other crate in the workspace can
//! depend on it without cycles. The integration tests reach back up the
//! stack through dev-dependencies.

use std::fmt;

/// How severe a diagnostic is.
///
/// `Error` means the configuration cannot work (it would panic, wedge
/// the simulator, or fail synthesis); `Warning` means it will run but
/// contradicts the paper's design intent (e.g. wasted bandwidth).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but runnable configuration.
    Warning,
    /// The configuration is invalid and must be rejected.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// A single finding from the static analyzer or the simulation
/// sanitizer.
///
/// The `code` is stable across releases: scripts and CI may match on
/// it. The `context` carries the numbers that triggered the finding as
/// `(name, value)` pairs so callers can render or assert on them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable machine-readable code, e.g. `"BON001"`.
    pub code: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// Human-readable, single-sentence description of the finding.
    pub message: String,
    /// `(name, value)` pairs recording the offending quantities.
    pub context: Vec<(&'static str, String)>,
}

impl Diagnostic {
    /// Construct an error diagnostic.
    #[must_use]
    pub fn error(code: &'static str, message: impl Into<String>) -> Self {
        Self {
            code,
            severity: Severity::Error,
            message: message.into(),
            context: Vec::new(),
        }
    }

    /// Construct a warning diagnostic.
    #[must_use]
    pub fn warning(code: &'static str, message: impl Into<String>) -> Self {
        Self {
            code,
            severity: Severity::Warning,
            message: message.into(),
            context: Vec::new(),
        }
    }

    /// Attach a named quantity to the diagnostic (builder style).
    #[must_use]
    pub fn with(mut self, name: &'static str, value: impl fmt::Display) -> Self {
        self.context.push((name, value.to_string()));
        self
    }

    /// `true` if this diagnostic is an [`Severity::Error`].
    #[must_use]
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}] {}", self.code, self.severity, self.message)?;
        if !self.context.is_empty() {
            write!(f, " (")?;
            for (i, (name, value)) in self.context.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{name}={value}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// `true` if any diagnostic in the slice is an error.
#[must_use]
pub fn has_errors(diagnostics: &[Diagnostic]) -> bool {
    diagnostics.iter().any(Diagnostic::is_error)
}

/// The stable diagnostic code registry.
///
/// Codes are never renumbered or reused. A retired code leaves the
/// registry; the "Retired codes" section of `docs/diagnostics.md` is its
/// record, and a test fails if a number listed there is registered
/// again. Each constant documents its own trigger; cause and fix live
/// in `docs/diagnostics.md`.
pub mod codes {
    use super::Severity;

    /// Static metadata about one diagnostic code.
    #[derive(Debug, Clone, Copy)]
    pub struct CodeInfo {
        /// The stable code string, e.g. `"BON001"`.
        pub code: &'static str,
        /// Default severity the analyzer emits this code with.
        pub severity: Severity,
        /// One-line summary (matches the catalogue heading).
        pub summary: &'static str,
    }

    /// The one table behind the registry: each row declares a code's
    /// `pub const` *and* its [`CodeInfo`] entry in [`ALL`], so adding a
    /// code is a single edit.
    macro_rules! registry {
        ($($(#[$doc:meta])+ $name:ident = $code:literal, $severity:ident, $summary:literal;)+) => {
            $($(#[$doc])+ pub const $name: &str = $code;)+

            /// Every registered code, in catalogue order.
            pub const ALL: &[CodeInfo] = &[$(CodeInfo {
                code: $name,
                severity: Severity::$severity,
                summary: $summary,
            }),+];
        };
    }

    registry! {
        // --- BON00x: AMT / record shape ---------------------------------
        /// Root throughput `p` is not a power of two (or is zero).
        P_NOT_POWER_OF_TWO = "BON001", Error, "p not a power of two";
        /// Leaf count `l` is not a power of two >= 2.
        L_NOT_POWER_OF_TWO = "BON002", Error, "l not a power of two >= 2";
        /// Root width `p` exceeds the leaf count `l`.
        P_EXCEEDS_LEAVES = "BON003", Warning, "p exceeds leaf count l";
        /// Record width is zero bytes.
        RECORD_WIDTH_ZERO = "BON004", Error, "record width is zero";
        /// Loader batch is not a whole number of records.
        BATCH_NOT_RECORD_MULTIPLE = "BON005", Error, "batch not a whole number of records";

        // --- BON01x: loader / memory ------------------------------------
        /// Loader batch smaller than one DRAM bus beat.
        BATCH_BELOW_BUS_WIDTH = "BON010", Error, "loader batch smaller than one DRAM burst";
        /// Loader batch size is zero bytes.
        BATCH_ZERO = "BON012", Error, "loader batch size is zero";
        /// Memory model has zero banks.
        MEMORY_ZERO_BANKS = "BON013", Error, "memory has zero banks";
        /// Memory port bandwidth is zero bytes/cycle.
        MEMORY_ZERO_BANDWIDTH = "BON014", Error, "memory port bandwidth is zero";
        /// Memory capacity cannot hold a single loader batch.
        CAPACITY_BELOW_BATCH = "BON015", Error, "memory capacity below one batch";
        /// Burst setup overhead wastes most of the bandwidth.
        BURST_EFFICIENCY_LOW = "BON016", Warning, "burst efficiency below 50%";

        // --- BON02x: resource model -------------------------------------
        /// Configuration exceeds the LUT budget (Eq. 9).
        LUT_BUDGET_EXCEEDED = "BON020", Error, "LUT budget exceeded (Eq. 9)";
        /// Configuration exceeds the BRAM budget (Eq. 10).
        BRAM_BUDGET_EXCEEDED = "BON021", Error, "BRAM budget exceeded (Eq. 10)";
        /// `p` exceeds the hardware's maximum synthesizable root width.
        P_EXCEEDS_MAX = "BON022", Error, "p exceeds hardware max_p";
        /// `l` exceeds the hardware's maximum routable leaf count.
        L_EXCEEDS_MAX = "BON023", Error, "l exceeds hardware max_l";
        /// Unroll or pipeline factor is zero.
        COPIES_ZERO = "BON024", Error, "unroll or pipeline factor is zero";
        /// Presorter chunk is not a power of two >= 2.
        PRESORT_NOT_POWER_OF_TWO = "BON025", Error, "presort chunk not a power of two >= 2";
        /// Presorter chunk exceeds one loader batch of records.
        PRESORT_EXCEEDS_BATCH = "BON026", Warning, "presort chunk exceeds one batch";

        // --- BON03x: pipeline dataflow -----------------------------------
        /// An edge FIFO is shallower than the consumer's flush requirement.
        GRAPH_FIFO_BELOW_FLUSH = "BON031", Error, "FIFO below the consumer's flush requirement";
        /// Source→sink min-cut bandwidth below the required throughput.
        GRAPH_BANDWIDTH_INFEASIBLE = "BON032", Error, "min-cut bandwidth below required throughput";
        /// The analytical model predicts below the pipeline's static
        /// latency lower bound (critical path / min-cut certification
        /// failed).
        GRAPH_LATENCY_BOUND_VIOLATION = "BON033", Error, "model predicts below the static latency bound";
        /// Model latency drifted beyond tolerance from a SimEngine probe.
        GRAPH_MODEL_DRIFT = "BON036", Warning, "model drifted from simulation beyond tolerance";

        // --- BON04x: simulation runtime ---------------------------------
        /// A simulated merge pass exceeded its livelock cycle bound.
        SIM_PASS_LIVELOCK = "BON040", Error, "simulated pass exceeded its livelock cycle bound";

        // --- BON05x: runtime topology -----------------------------------
        /// More job workers than the host has cores.
        RUNTIME_OVERSUBSCRIBED = "BON054", Warning, "job workers oversubscribe the host cores";
        /// Queue depth below the worker count starves the pool.
        RUNTIME_QUEUE_BELOW_WORKERS = "BON055", Warning, "queue depth below worker count starves the pool";

        // --- BON06x: static throughput floor ----------------------------
        /// The static throughput floor exceeds an observed/model throughput.
        THROUGHPUT_FLOOR_UNSOUND = "BON064", Error, "static throughput floor exceeds observed throughput";

        // --- BON07x: wire protocol (bonsai-net) -------------------------
        /// A wire frame's magic word did not match; the byte stream is
        /// desynchronized and the connection cannot be trusted further.
        WIRE_BAD_MAGIC = "BON070", Error, "wire frame magic mismatch (stream desynchronized)";
        /// A wire frame carried an unsupported protocol version.
        WIRE_BAD_VERSION = "BON071", Error, "wire protocol version unsupported";
        /// The connection closed mid-frame (truncated header or payload).
        WIRE_TRUNCATED = "BON072", Error, "wire frame truncated mid-header or mid-payload";
        /// A wire frame declared a payload larger than the server accepts.
        WIRE_PAYLOAD_OVERSIZED = "BON073", Error, "wire payload exceeds the server's frame limit";
        /// A wire payload is not a whole number of records.
        WIRE_PAYLOAD_RAGGED = "BON074", Error, "wire payload not a whole number of records";
        /// A wire frame's record width does not match the server's record
        /// type.
        WIRE_WIDTH_UNSUPPORTED = "BON075", Error, "wire record width unsupported by the server";
        /// The server is shutting down; the job was rejected, not run.
        WIRE_SERVER_CLOSED = "BON076", Error, "server shutting down; job rejected at submit";
        /// The job was accepted but failed server-side (invalid config,
        /// BON040 livelock, or a panicking job); the payload carries the
        /// underlying diagnostic text.
        WIRE_JOB_FAILED = "BON077", Error, "accepted job failed server-side";

        // --- BON09x: external sorter ------------------------------------
        /// `ExternalSorter::try_new` got a zero memory budget or a merge
        /// fan-in below 2.
        EXTERNAL_SORTER_INVALID = "BON090", Error, "external sorter budget zero or fan-in below 2";

        // --- BON1xx: simulation sanitizer -------------------------------
        /// A FIFO rejected a push (overflow) during simulation.
        SAN_FIFO_OVERFLOW = "BON101", Error, "sanitizer: FIFO overflow";
        /// A merger emitted a descending record inside one run.
        SAN_OUT_OF_ORDER = "BON102", Error, "sanitizer: out-of-order output in run";
        /// A merger consumed and produced different record counts.
        SAN_RECORD_CONSERVATION = "BON103", Error, "sanitizer: merger record conservation";
        /// A simulation pass lost or duplicated records end to end.
        SAN_PASS_CONSERVATION = "BON104", Error, "sanitizer: pass record conservation";
        /// Per-bank byte accounting disagrees with aggregate counters.
        SAN_BYTE_ACCOUNTING = "BON105", Error, "sanitizer: byte accounting mismatch";
        /// Terminal-record flush protocol violated at the root.
        SAN_FLUSH_PROTOCOL = "BON106", Error, "sanitizer: flush protocol violation";
    }

    /// Look up a code's registry entry.
    #[must_use]
    pub fn lookup(code: &str) -> Option<&'static CodeInfo> {
        ALL.iter().find(|info| info.code == code)
    }
}

/// Check the AMT shape parameters `p` (root throughput, records/cycle)
/// and `l` (leaf count). Emits `BON001`, `BON002`, `BON003`.
#[must_use]
pub fn check_amt_shape(p: usize, l: usize) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if p == 0 || !p.is_power_of_two() {
        out.push(
            Diagnostic::error(
                codes::P_NOT_POWER_OF_TWO,
                "root throughput p must be a power of two >= 1",
            )
            .with("p", p),
        );
    }
    if l < 2 || !l.is_power_of_two() {
        out.push(
            Diagnostic::error(
                codes::L_NOT_POWER_OF_TWO,
                "leaf count l must be a power of two >= 2",
            )
            .with("l", l),
        );
    }
    if p.is_power_of_two() && l.is_power_of_two() && p > l {
        out.push(
            Diagnostic::warning(
                codes::P_EXCEEDS_LEAVES,
                "root width p exceeds leaf count l; levels above log2(l) add no throughput",
            )
            .with("p", p)
            .with("l", l),
        );
    }
    out
}

/// Check the loader's internal shape: batch size and record width.
/// Emits `BON012`, `BON004`, `BON005`.
#[must_use]
pub fn check_loader_shape(batch_bytes: usize, record_bytes: usize) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if batch_bytes == 0 {
        out.push(
            Diagnostic::error(codes::BATCH_ZERO, "loader batch size must be positive")
                .with("batch_bytes", batch_bytes),
        );
    }
    if record_bytes == 0 {
        out.push(
            Diagnostic::error(codes::RECORD_WIDTH_ZERO, "record width must be positive")
                .with("record_bytes", record_bytes),
        );
    } else if !batch_bytes.is_multiple_of(record_bytes) {
        out.push(
            Diagnostic::error(
                codes::BATCH_NOT_RECORD_MULTIPLE,
                "loader batch must hold a whole number of records",
            )
            .with("batch_bytes", batch_bytes)
            .with("record_bytes", record_bytes),
        );
    }
    out
}

/// Check the memory model's own parameters. Emits `BON013`, `BON014`.
#[must_use]
pub fn check_memory_shape(
    banks: usize,
    read_bytes_per_cycle: usize,
    write_bytes_per_cycle: usize,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if banks == 0 {
        out.push(
            Diagnostic::error(
                codes::MEMORY_ZERO_BANKS,
                "memory must have at least one bank",
            )
            .with("banks", banks),
        );
    }
    if read_bytes_per_cycle == 0 || write_bytes_per_cycle == 0 {
        out.push(
            Diagnostic::error(
                codes::MEMORY_ZERO_BANDWIDTH,
                "memory port bandwidth must be positive in both directions",
            )
            .with("read_bytes_per_cycle", read_bytes_per_cycle)
            .with("write_bytes_per_cycle", write_bytes_per_cycle),
        );
    }
    out
}

/// Cross-check the loader against the memory it reads from. Emits
/// `BON010`, `BON015`, `BON016`.
#[must_use]
pub fn check_loader_against_memory(
    batch_bytes: usize,
    read_bytes_per_cycle: usize,
    burst_setup_cycles: u64,
    capacity_bytes: u64,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if batch_bytes == 0 || read_bytes_per_cycle == 0 {
        // Shape errors are reported by the shape checks; nothing to
        // cross-validate here.
        return out;
    }
    if batch_bytes < read_bytes_per_cycle {
        out.push(
            Diagnostic::error(
                codes::BATCH_BELOW_BUS_WIDTH,
                "loader batch is smaller than one DRAM burst; the bus cannot issue a partial beat",
            )
            .with("batch_bytes", batch_bytes)
            .with("read_bytes_per_cycle", read_bytes_per_cycle),
        );
    }
    if capacity_bytes < batch_bytes as u64 {
        out.push(
            Diagnostic::error(
                codes::CAPACITY_BELOW_BATCH,
                "memory capacity cannot hold a single loader batch",
            )
            .with("capacity_bytes", capacity_bytes)
            .with("batch_bytes", batch_bytes),
        );
    }
    // Burst efficiency = transfer / (transfer + setup); below 50% the
    // setup overhead dominates and batching has failed its purpose.
    let transfer_cycles = batch_bytes.div_ceil(read_bytes_per_cycle) as u64;
    if batch_bytes >= read_bytes_per_cycle && transfer_cycles < burst_setup_cycles {
        out.push(
            Diagnostic::warning(
                codes::BURST_EFFICIENCY_LOW,
                "burst setup cycles dominate the transfer; grow the batch to amortize them",
            )
            .with("transfer_cycles", transfer_cycles)
            .with("burst_setup_cycles", burst_setup_cycles),
        );
    }
    out
}

/// Check synthesis limits for the tree shape. Emits `BON022`, `BON023`.
#[must_use]
pub fn check_tool_limits(p: usize, l: usize, max_p: usize, max_l: usize) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if p > max_p {
        out.push(
            Diagnostic::error(
                codes::P_EXCEEDS_MAX,
                "root width p exceeds the maximum the tools can synthesize",
            )
            .with("p", p)
            .with("max_p", max_p),
        );
    }
    if l > max_l {
        out.push(
            Diagnostic::error(
                codes::L_EXCEEDS_MAX,
                "leaf count l exceeds the maximum the tools can route",
            )
            .with("l", l)
            .with("max_l", max_l),
        );
    }
    out
}

/// Check the LUT budget (paper Eq. 9). Emits `BON020`.
#[must_use]
pub fn check_lut_budget(required_lut: f64, available_lut: f64) -> Vec<Diagnostic> {
    if required_lut > available_lut {
        vec![Diagnostic::error(
            codes::LUT_BUDGET_EXCEEDED,
            "configuration exceeds the device LUT budget (Eq. 9)",
        )
        .with("required_lut", format!("{required_lut:.0}"))
        .with("available_lut", format!("{available_lut:.0}"))]
    } else {
        Vec::new()
    }
}

/// Check the BRAM budget (paper Eq. 10). Emits `BON021`.
#[must_use]
pub fn check_bram_budget(required_bytes: u64, available_bytes: u64) -> Vec<Diagnostic> {
    if required_bytes > available_bytes {
        vec![Diagnostic::error(
            codes::BRAM_BUDGET_EXCEEDED,
            "configuration exceeds the device BRAM budget (Eq. 10)",
        )
        .with("required_bytes", required_bytes)
        .with("available_bytes", available_bytes)]
    } else {
        Vec::new()
    }
}

/// Check unroll/pipeline replication factors. Emits `BON024`.
#[must_use]
pub fn check_copies(unroll: usize, pipeline: usize) -> Vec<Diagnostic> {
    if unroll == 0 || pipeline == 0 {
        vec![Diagnostic::error(
            codes::COPIES_ZERO,
            "unroll and pipeline factors must both be at least 1",
        )
        .with("unroll", unroll)
        .with("pipeline", pipeline)]
    } else {
        Vec::new()
    }
}

/// Check the presorter chunk length against the loader batch. Emits
/// `BON025`, `BON026`.
#[must_use]
pub fn check_presort(chunk: usize, batch_records: usize) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if chunk < 2 || !chunk.is_power_of_two() {
        out.push(
            Diagnostic::error(
                codes::PRESORT_NOT_POWER_OF_TWO,
                "presorter chunk must be a power of two >= 2 (it is a bitonic network)",
            )
            .with("chunk", chunk),
        );
    } else if batch_records > 0 && chunk > batch_records {
        out.push(
            Diagnostic::warning(
                codes::PRESORT_EXCEEDS_BATCH,
                "presorter chunk spans more than one loader batch; runs will straddle refills",
            )
            .with("chunk", chunk)
            .with("batch_records", batch_records),
        );
    }
    out
}

/// Check the parallel runtime's thread/queue topology. Emits `BON054`,
/// `BON055`.
///
/// `workers` follows the runtime convention that `0` means "one per
/// core"; `cores` is the host core count, the oversubscription bound.
/// Every job runs its passes on its own worker's thread, so the worker
/// count is the runtime's thread count. `bonsai-serve`, the program
/// that takes these knobs on its command line, prints the findings at
/// startup.
#[must_use]
pub fn check_runtime_shape(workers: usize, queue_depth: usize, cores: usize) -> Vec<Diagnostic> {
    let cores = cores.max(1);
    let mut out = Vec::new();
    if workers > cores {
        out.push(
            Diagnostic::warning(
                codes::RUNTIME_OVERSUBSCRIBED,
                "job workers exceed the host cores; threads will time-slice instead \
                 of running in parallel",
            )
            .with("workers", workers)
            .with("cores", cores),
        );
    }
    // Only an *explicit* worker count can contradict the queue depth;
    // the auto (`0`) sentinel sizes the pool to whatever host it lands
    // on, so there is no stated intent for the depth to mismatch. The
    // queue clamps a depth of 0 to one slot, so 0 starves the pool
    // exactly like 1.
    if workers > 0 && queue_depth.max(1) < workers {
        out.push(
            Diagnostic::warning(
                codes::RUNTIME_QUEUE_BELOW_WORKERS,
                "queue depth below the worker count cannot keep every worker fed; \
                 idle workers will starve behind the submitters",
            )
            .with("queue_depth", queue_depth)
            .with("workers", workers),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_code_severity_and_context() {
        let d =
            Diagnostic::error(codes::P_NOT_POWER_OF_TWO, "p must be a power of two").with("p", 6);
        let s = d.to_string();
        assert!(s.contains("BON001"), "{s}");
        assert!(s.contains("error"), "{s}");
        assert!(s.contains("p=6"), "{s}");
    }

    #[test]
    fn registry_codes_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for info in codes::ALL {
            assert!(info.code.starts_with("BON"), "{}", info.code);
            assert_eq!(info.code.len(), 6, "{}", info.code);
            assert!(seen.insert(info.code), "duplicate code {}", info.code);
        }
    }

    #[test]
    fn lookup_finds_registered_codes() {
        assert!(codes::lookup("BON001").is_some());
        assert!(codes::lookup("BON999").is_none());
    }

    #[test]
    fn has_errors_ignores_warnings() {
        let warns = vec![Diagnostic::warning(codes::BURST_EFFICIENCY_LOW, "w")];
        assert!(!has_errors(&warns));
        let errs = vec![
            Diagnostic::warning(codes::BURST_EFFICIENCY_LOW, "w"),
            Diagnostic::error(codes::BATCH_ZERO, "e"),
        ];
        assert!(has_errors(&errs));
    }

    #[test]
    fn valid_shapes_produce_no_diagnostics() {
        assert!(check_amt_shape(16, 64).is_empty());
        assert!(check_loader_shape(4096, 4).is_empty());
        assert!(check_memory_shape(4, 32, 32).is_empty());
        assert!(check_loader_against_memory(4096, 32, 8, 1 << 30).is_empty());
        assert!(check_tool_limits(16, 64, 32, 256).is_empty());
        assert!(check_lut_budget(1000.0, 2000.0).is_empty());
        assert!(check_bram_budget(1 << 20, 1 << 21).is_empty());
        assert!(check_copies(1, 2).is_empty());
        assert!(check_presort(16, 1024).is_empty());
        assert!(check_runtime_shape(2, 16, 8).is_empty());
    }
}
