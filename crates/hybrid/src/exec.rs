//! The hybrid execution context: CUDA-like issue semantics over simulated
//! resource timelines.

use crate::cost::{CostModel, OpClass, Work};
use crate::stats::ExecStats;

/// Identifies one device stream (in-order queue of device work).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamId(pub usize);

/// Whether the drivers run their arithmetic. The context itself only
/// keeps time, identically in both modes; a driver reads
/// [`HybridCtx::mode`] to decide whether it also computes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Run the real arithmetic (simulated time + real results).
    Full,
    /// Skip the arithmetic, advance the clocks only. Drivers return no
    /// factorization and must not branch on numerics in this mode.
    TimingOnly,
}

/// A simulated host + device + link platform.
///
/// Issue semantics mirror the CUDA runtime the paper's MAGMA code uses:
///
/// * [`HybridCtx::host`] blocks the host clock for the op's duration;
/// * [`HybridCtx::device`] enqueues onto a stream: the op starts when both
///   the stream is free **and** the host has issued it (`max(stream,
///   host)`), and the call returns to the host immediately;
/// * [`HybridCtx::h2d`]/[`HybridCtx::d2h`] occupy the link and the target
///   stream, also asynchronously;
/// * [`HybridCtx::sync_stream`]/[`HybridCtx::sync_all`] advance the host
///   clock to the stream completion times (like `cudaStreamSynchronize`);
/// * [`HybridCtx::stream_wait_stream`] is `cudaStreamWaitEvent`.
///
/// The context only charges time: each call advances the clocks by the
/// cost model's price of the described operation. The drivers run the
/// arithmetic themselves, in program order, and only in
/// [`ExecMode::Full`]. That is sound because they issue operations in
/// data-dependency order (as any correct CUDA program must); the
/// *simulated* clocks replay what a genuinely concurrent platform would
/// have achieved.
pub struct HybridCtx {
    cost: CostModel,
    mode: ExecMode,
    host_time: f64,
    streams: Vec<f64>,
    link_time: f64,
    stats: ExecStats,
}

impl HybridCtx {
    /// Creates a context with `nstreams` device streams.
    pub fn new(cost: CostModel, mode: ExecMode, nstreams: usize) -> Self {
        assert!(nstreams >= 1, "need at least one stream");
        HybridCtx {
            cost,
            mode,
            host_time: 0.0,
            streams: vec![0.0; nstreams],
            link_time: 0.0,
            stats: ExecStats::default(),
        }
    }

    /// The execution mode.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Sets the simulated host-parallelism factor (see
    /// [`CostModel::host_parallelism`]) — typically the worker count of
    /// the active `ft-blas` backend, so simulated host time tracks the
    /// threading knob the kernels actually run under.
    pub fn set_host_parallelism(&mut self, factor: f64) {
        self.cost.host_parallelism = factor;
    }

    /// Current host clock.
    pub fn host_time(&self) -> f64 {
        self.host_time
    }

    /// Current clock of `stream`.
    pub fn stream_time(&self, stream: StreamId) -> f64 {
        self.streams[stream.0]
    }

    /// Makespan so far: the latest of all clocks.
    pub fn elapsed(&self) -> f64 {
        self.streams
            .iter()
            .copied()
            .fold(self.host_time.max(self.link_time), f64::max)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Synchronous host work: blocks the host clock.
    pub fn host(&mut self, class: OpClass, work: Work) {
        debug_assert!(
            class.is_host(),
            "host() called with non-host class {class:?}"
        );
        let dt = self.cost.seconds(class, work);
        let start = self.host_time;
        self.host_time += dt;
        self.stats.record(class, dt);
        if ft_trace::enabled() {
            // Simulated lanes: 0 = host, 1+s = device stream s.
            ft_trace::record_sim(class.name(), 0, start * 1e6, dt * 1e6);
        }
    }

    /// Asynchronous device kernel on `stream`. Returns immediately (the
    /// host clock is not advanced); the stream clock advances by the
    /// kernel duration starting from `max(stream, host)`.
    pub fn device(&mut self, stream: StreamId, class: OpClass, work: Work) {
        debug_assert!(
            class.is_device(),
            "device() called with non-device class {class:?}"
        );
        let dt = self.cost.seconds(class, work);
        let start = self.streams[stream.0].max(self.host_time);
        self.streams[stream.0] = start + dt;
        self.stats.record(class, dt);
        if ft_trace::enabled() {
            ft_trace::record_sim(class.name(), 1 + stream.0 as u64, start * 1e6, dt * 1e6);
        }
    }

    /// Asynchronous host→device transfer on `stream`: occupies the link
    /// and serializes with prior work on `stream`.
    pub fn h2d(&mut self, stream: StreamId, bytes: usize) {
        self.transfer(stream, bytes);
    }

    /// Asynchronous device→host transfer on `stream`.
    pub fn d2h(&mut self, stream: StreamId, bytes: usize) {
        self.transfer(stream, bytes);
    }

    fn transfer(&mut self, stream: StreamId, bytes: usize) {
        let dt = self
            .cost
            .seconds(OpClass::Transfer, Work::Bytes(bytes as f64));
        let start = self.streams[stream.0]
            .max(self.link_time)
            .max(self.host_time);
        let end = start + dt;
        self.streams[stream.0] = end;
        self.link_time = end;
        self.stats.record(OpClass::Transfer, dt);
        if ft_trace::enabled() {
            ft_trace::record_sim(
                OpClass::Transfer.name(),
                1 + stream.0 as u64,
                start * 1e6,
                dt * 1e6,
            );
        }
    }

    /// Blocks the host until `stream` has drained.
    pub fn sync_stream(&mut self, stream: StreamId) {
        self.host_time = self.host_time.max(self.streams[stream.0]);
    }

    /// Blocks the host until every stream and the link have drained.
    pub fn sync_all(&mut self) {
        self.host_time = self.elapsed();
    }

    /// Makes `stream` wait for all work currently enqueued on `other`
    /// (`cudaStreamWaitEvent` with an event recorded now).
    pub fn stream_wait_stream(&mut self, stream: StreamId, other: StreamId) {
        let t = self.streams[other.0];
        let s = &mut self.streams[stream.0];
        *s = s.max(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> HybridCtx {
        HybridCtx::new(CostModel::unit_test_model(), ExecMode::Full, 2)
    }

    #[test]
    fn host_work_blocks_host() {
        let mut c = ctx();
        c.host(OpClass::HostPanel, Work::Flops(5.0));
        assert_eq!(c.host_time(), 5.0);
        assert_eq!(c.elapsed(), 5.0);
    }

    #[test]
    fn device_work_is_async() {
        let mut c = ctx();
        c.device(StreamId(0), OpClass::DeviceGemm, Work::Flops(10.0));
        // Host did not advance; stream did.
        assert_eq!(c.host_time(), 0.0);
        assert_eq!(c.stream_time(StreamId(0)), 10.0);
        assert_eq!(c.elapsed(), 10.0);
        // Host work overlaps with the in-flight kernel.
        c.host(OpClass::HostPanel, Work::Flops(4.0));
        assert_eq!(c.host_time(), 4.0);
        assert_eq!(c.elapsed(), 10.0, "overlap: makespan still 10");
        c.sync_stream(StreamId(0));
        assert_eq!(c.host_time(), 10.0);
    }

    #[test]
    fn device_kernel_waits_for_host_issue() {
        let mut c = ctx();
        c.host(OpClass::HostPanel, Work::Flops(3.0));
        c.device(StreamId(0), OpClass::DeviceGemm, Work::Flops(2.0));
        // Kernel issued at t=3, runs 2 ⇒ stream at 5.
        assert_eq!(c.stream_time(StreamId(0)), 5.0);
    }

    #[test]
    fn same_stream_serializes_different_streams_overlap() {
        let mut c = ctx();
        c.device(StreamId(0), OpClass::DeviceGemm, Work::Flops(4.0));
        c.device(StreamId(0), OpClass::DeviceGemm, Work::Flops(4.0));
        c.device(StreamId(1), OpClass::DeviceGemm, Work::Flops(4.0));
        assert_eq!(c.stream_time(StreamId(0)), 8.0);
        assert_eq!(c.stream_time(StreamId(1)), 4.0);
        assert_eq!(c.elapsed(), 8.0);
    }

    #[test]
    fn transfers_occupy_link_and_stream() {
        let mut c = ctx();
        // 1 byte = 1 s in the unit model.
        c.h2d(StreamId(0), 3);
        assert_eq!(c.stream_time(StreamId(0)), 3.0);
        // A second transfer on another stream serializes on the link.
        c.h2d(StreamId(1), 3);
        assert_eq!(c.stream_time(StreamId(1)), 6.0);
        assert_eq!(c.host_time(), 0.0, "transfers are async");
    }

    #[test]
    fn stream_wait_stream_orders_cross_stream_work() {
        let mut c = ctx();
        c.device(StreamId(0), OpClass::DeviceGemm, Work::Flops(6.0));
        c.stream_wait_stream(StreamId(1), StreamId(0));
        c.device(StreamId(1), OpClass::DeviceGemm, Work::Flops(1.0));
        assert_eq!(c.stream_time(StreamId(1)), 7.0);
    }

    #[test]
    fn stats_accumulate() {
        let mut c = ctx();
        c.host(OpClass::HostPanel, Work::Flops(1.0));
        c.device(StreamId(0), OpClass::DeviceGemm, Work::Flops(2.0));
        c.h2d(StreamId(0), 4);
        let s = c.stats();
        assert_eq!(s.host_busy, 1.0);
        assert_eq!(s.device_busy, 2.0);
        assert_eq!(s.link_busy, 4.0);
        assert_eq!(s.count(OpClass::Transfer), 1);
    }
}
