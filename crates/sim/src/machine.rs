//! The simulated machine: buffer allocation, kernel launches, per-level
//! traffic accounting and the roofline time model.

use crate::cache::LruCache;
use crate::config::GpuConfig;

/// A virtual device allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferHandle {
    base: u64,
    bytes: u64,
}

impl BufferHandle {
    /// Allocation size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// One contiguous byte range of a buffer touched by a kernel.
#[derive(Debug, Clone, Copy)]
pub struct Region {
    /// The buffer.
    pub buffer: BufferHandle,
    /// Byte offset within it.
    pub offset: u64,
    /// Extent in bytes.
    pub bytes: u64,
}

impl Region {
    /// The whole buffer as one region.
    pub fn whole(buffer: BufferHandle) -> Self {
        Region {
            buffer,
            offset: 0,
            bytes: buffer.bytes,
        }
    }

    /// A sub-range of a buffer.
    pub fn range(buffer: BufferHandle, offset: u64, bytes: u64) -> Self {
        debug_assert!(offset + bytes <= buffer.bytes, "region out of bounds");
        Region {
            buffer,
            offset,
            bytes,
        }
    }
}

/// One kernel launch.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Diagnostic name.
    pub name: String,
    /// Floating-point operations executed.
    pub flops: u64,
    /// Whether the inner loops map to TensorCore MMA tiles.
    pub tensor_cores: bool,
    /// Device-memory regions read (these go through L2, then DRAM on miss).
    pub reads: Vec<Region>,
    /// Device-memory regions written (write-allocate through L2).
    pub writes: Vec<Region>,
    /// Extra shared-memory/register traffic beyond the region bytes —
    /// intra-kernel reuse served from L1/smem (tile re-reads inside a
    /// GEMM, staged operands of a fused cell, ...).
    pub l1_extra_bytes: u64,
    /// Thread blocks launched.
    pub ctas: u64,
    /// Shared memory per block, bytes (occupancy limiter).
    pub smem_per_cta: u64,
}

/// Cumulative per-level byte counters — the Table 7 metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TrafficCounters {
    /// Total bytes of access to GPU DRAM.
    pub dram_bytes: u64,
    /// Total bytes of access to the L2 cache.
    pub l2_bytes: u64,
    /// Total bytes of access to L1/shared memory.
    pub l1_bytes: u64,
}

impl TrafficCounters {
    /// Gigabytes of DRAM traffic.
    pub fn dram_gb(&self) -> f64 {
        self.dram_bytes as f64 / 1e9
    }

    /// Gigabytes of L2 traffic.
    pub fn l2_gb(&self) -> f64 {
        self.l2_bytes as f64 / 1e9
    }

    /// Gigabytes of L1 traffic.
    pub fn l1_gb(&self) -> f64 {
        self.l1_bytes as f64 / 1e9
    }
}

/// Per-kernel timing breakdown (microseconds), for diagnostics and ablation
/// benches.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelTiming {
    /// Launch overhead.
    pub launch_us: f64,
    /// Compute-roof time.
    pub compute_us: f64,
    /// DRAM-roof time.
    pub dram_us: f64,
    /// L2-roof time.
    pub l2_us: f64,
    /// L1-roof time.
    pub l1_us: f64,
    /// The final modeled time (launch + max of the roofs).
    pub total_us: f64,
}

/// The simulated machine.
#[derive(Debug, Clone)]
pub struct SimMachine {
    config: GpuConfig,
    l2: LruCache,
    next_base: u64,
    counters: TrafficCounters,
    elapsed_us: f64,
    kernels_launched: u64,
    log: Vec<(String, KernelTiming)>,
    keep_log: bool,
}

impl SimMachine {
    /// A fresh machine.
    pub fn new(config: GpuConfig) -> Self {
        let l2_chunks = config.l2_bytes / config.l2_chunk_bytes;
        let ways = config.l2_ways;
        SimMachine {
            l2: LruCache::new(l2_chunks, ways),
            config,
            next_base: 0,
            counters: TrafficCounters::default(),
            elapsed_us: 0.0,
            kernels_launched: 0,
            log: Vec::new(),
            keep_log: false,
        }
    }

    /// Enables the per-kernel timing log (off by default to keep sweeps
    /// cheap).
    pub fn with_log(mut self) -> Self {
        self.keep_log = true;
        self
    }

    /// The machine configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Allocates a device buffer.
    pub fn alloc(&mut self, bytes: u64) -> BufferHandle {
        // Align bases to the chunk size so distinct buffers never share a
        // modeled L2 chunk.
        let chunk = self.config.l2_chunk_bytes;
        let base = self.next_base;
        self.next_base += bytes.div_ceil(chunk) * chunk;
        BufferHandle { base, bytes }
    }

    /// Launches a kernel: accounts traffic at every level and advances the
    /// clock by the roofline time.
    pub fn launch(&mut self, k: &Kernel) -> KernelTiming {
        let chunk = self.config.l2_chunk_bytes;
        let mut l2_request_bytes = 0u64;
        let mut dram_bytes = 0u64;
        for (region, is_write) in k
            .reads
            .iter()
            .map(|r| (r, false))
            .chain(k.writes.iter().map(|r| (r, true)))
        {
            l2_request_bytes += region.bytes;
            let start = (region.buffer.base + region.offset) / chunk;
            let end = (region.buffer.base + region.offset + region.bytes.max(1) - 1) / chunk;
            for c in start..=end {
                let hit = self.l2.access(c, self.config.l2_ways);
                if !hit {
                    // Reads miss to DRAM; writes allocate (read-for-
                    // ownership omitted) and are counted as DRAM write
                    // traffic once per chunk at eviction — modeled as
                    // immediate write-through for determinism.
                    dram_bytes += chunk.min(region.bytes);
                    let _ = is_write;
                }
            }
        }
        // L1 sees every byte the SMs request: the region traffic plus the
        // declared intra-kernel reuse traffic.
        let l1_bytes = l2_request_bytes + k.l1_extra_bytes;

        self.counters.l1_bytes += l1_bytes;
        self.counters.l2_bytes += l2_request_bytes;
        self.counters.dram_bytes += dram_bytes;

        // Roofline time.
        let cfg = &self.config;
        let concurrent = if k.smem_per_cta == 0 {
            (cfg.num_sms * cfg.max_ctas_per_sm) as u64
        } else {
            let per_sm = (cfg.smem_per_sm_bytes / k.smem_per_cta.max(1))
                .clamp(1, cfg.max_ctas_per_sm as u64);
            cfg.num_sms as u64 * per_sm
        };
        let occupancy = (k.ctas.max(1) as f64 / concurrent as f64).min(1.0);
        let compute_us = k.flops as f64 / (cfg.flops_per_us(k.tensor_cores) * occupancy);
        let dram_us = dram_bytes as f64 / GpuConfig::bytes_per_us(cfg.dram_bw_gbps);
        let l2_us = l2_request_bytes as f64 / GpuConfig::bytes_per_us(cfg.l2_bw_gbps);
        let l1_us =
            l1_bytes as f64 / (GpuConfig::bytes_per_us(cfg.l1_bw_gbps) * occupancy.max(0.05));
        let timing = KernelTiming {
            launch_us: cfg.kernel_launch_us,
            compute_us,
            dram_us,
            l2_us,
            l1_us,
            total_us: cfg.kernel_launch_us + compute_us.max(dram_us).max(l2_us).max(l1_us),
        };
        if ft_obs::enabled() {
            // The kernel's roofline breakdown, placed on the simulated
            // timeline (SIM_PID) so wall-clock spans and modeled time stay
            // on separate tracks in the trace viewer.
            let bound = if timing.launch_us >= compute_us.max(dram_us).max(l2_us).max(l1_us) {
                "launch"
            } else if compute_us >= dram_us.max(l2_us).max(l1_us) {
                "compute"
            } else if dram_us >= l2_us.max(l1_us) {
                "dram"
            } else if l2_us >= l1_us {
                "l2"
            } else {
                "l1"
            };
            ft_obs::complete_event(
                "sim",
                format!("kernel.{}", k.name),
                ft_obs::SIM_PID,
                0,
                self.elapsed_us,
                timing.total_us,
                vec![
                    ("flops".to_string(), k.flops.into()),
                    ("dram_bytes".to_string(), dram_bytes.into()),
                    ("l2_bytes".to_string(), l2_request_bytes.into()),
                    ("l1_bytes".to_string(), l1_bytes.into()),
                    ("launch_us".to_string(), timing.launch_us.into()),
                    ("compute_us".to_string(), compute_us.into()),
                    ("dram_us".to_string(), dram_us.into()),
                    ("l2_us".to_string(), l2_us.into()),
                    ("l1_us".to_string(), l1_us.into()),
                    ("occupancy".to_string(), occupancy.into()),
                    ("ctas".to_string(), k.ctas.into()),
                    ("bound".to_string(), bound.into()),
                ],
            );
        }
        self.elapsed_us += timing.total_us;
        self.kernels_launched += 1;
        if self.keep_log {
            self.log.push((k.name.clone(), timing));
        }
        timing
    }

    /// Cumulative per-level traffic.
    pub fn counters(&self) -> TrafficCounters {
        self.counters
    }

    /// Modeled elapsed time, milliseconds.
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed_us / 1e3
    }

    /// Kernel launches so far.
    pub fn kernels_launched(&self) -> u64 {
        self.kernels_launched
    }

    /// The per-kernel log, if enabled.
    pub fn log(&self) -> &[(String, KernelTiming)] {
        &self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_kernel(buf: BufferHandle) -> Kernel {
        Kernel {
            name: "k".into(),
            flops: 1000,
            tensor_cores: false,
            reads: vec![Region::whole(buf)],
            writes: vec![],
            l1_extra_bytes: 0,
            ctas: 108,
            smem_per_cta: 0,
        }
    }

    #[test]
    fn launch_overhead_accumulates() {
        let mut m = SimMachine::new(GpuConfig::a100());
        let b = m.alloc(1024);
        for _ in 0..10 {
            m.launch(&tiny_kernel(b));
        }
        assert_eq!(m.kernels_launched(), 10);
        // 10 launches x 5 us minimum.
        assert!(m.elapsed_ms() >= 0.05);
    }

    #[test]
    fn l2_reuse_cuts_dram_traffic() {
        let mut m = SimMachine::new(GpuConfig::a100());
        let b = m.alloc(1024 * 1024); // 1 MiB: fits comfortably in L2.
        m.launch(&tiny_kernel(b));
        let dram_after_first = m.counters().dram_bytes;
        assert!(dram_after_first > 0);
        m.launch(&tiny_kernel(b));
        // Second pass hits in L2: no new DRAM traffic.
        assert_eq!(m.counters().dram_bytes, dram_after_first);
        assert_eq!(m.counters().l2_bytes, 2 * 1024 * 1024);
    }

    #[test]
    fn streaming_oversized_buffer_misses_every_time() {
        let cfg = GpuConfig::a100();
        let mut m = SimMachine::new(cfg.clone());
        let b = m.alloc(2 * cfg.l2_bytes); // 2x L2: streams.
        m.launch(&tiny_kernel(b));
        let first = m.counters().dram_bytes;
        m.launch(&tiny_kernel(b));
        let second = m.counters().dram_bytes - first;
        // LRU streaming: the second pass misses (almost) everything again.
        assert!(second as f64 > 0.9 * first as f64);
    }

    #[test]
    fn distinct_buffers_do_not_alias() {
        let mut m = SimMachine::new(GpuConfig::a100());
        let a = m.alloc(100); // Sub-chunk allocations...
        let b = m.alloc(100);
        // ...must still land in different chunks.
        assert_ne!(a.base / 16384, b.base / 16384);
    }

    #[test]
    fn compute_bound_kernel_timed_by_flops() {
        let cfg = GpuConfig::a100();
        let mut m = SimMachine::new(cfg.clone());
        let b = m.alloc(1024);
        let k = Kernel {
            name: "compute".into(),
            flops: 19_500_000_000, // 1 ms of FP32 at full rate.
            tensor_cores: false,
            reads: vec![Region::whole(b)],
            writes: vec![],
            l1_extra_bytes: 0,
            ctas: (cfg.num_sms * cfg.max_ctas_per_sm) as u64,
            smem_per_cta: 0,
        };
        let t = m.launch(&k);
        assert!((t.compute_us - 1000.0).abs() < 1.0, "{t:?}");
        assert!(t.total_us >= t.compute_us);
    }

    #[test]
    fn low_occupancy_slows_compute() {
        let cfg = GpuConfig::a100();
        let mut m = SimMachine::new(cfg.clone());
        let b = m.alloc(1024);
        let mut k = Kernel {
            name: "tiny".into(),
            flops: 1_000_000_000,
            tensor_cores: false,
            reads: vec![Region::whole(b)],
            writes: vec![],
            l1_extra_bytes: 0,
            ctas: 1, // One block: most SMs idle.
            smem_per_cta: 0,
        };
        let t1 = m.launch(&k);
        k.ctas = (cfg.num_sms * cfg.max_ctas_per_sm) as u64;
        let t2 = m.launch(&k);
        assert!(t1.compute_us > 100.0 * t2.compute_us);
    }

    #[test]
    fn tensor_cores_speed_up_gemm_flops() {
        let cfg = GpuConfig::a100();
        let mut m = SimMachine::new(cfg.clone());
        let b = m.alloc(1024);
        let mk = |tc: bool| Kernel {
            name: "mm".into(),
            flops: 1_000_000_000,
            tensor_cores: tc,
            reads: vec![Region::whole(b)],
            writes: vec![],
            l1_extra_bytes: 0,
            ctas: 216,
            smem_per_cta: 0,
        };
        let slow = m.launch(&mk(false));
        let fast = m.launch(&mk(true));
        assert!(slow.compute_us > 7.0 * fast.compute_us);
    }

    #[test]
    fn traffic_counters_track_all_levels() {
        let mut m = SimMachine::new(GpuConfig::a100());
        let b = m.alloc(1 << 20);
        let k = Kernel {
            name: "t".into(),
            flops: 0,
            tensor_cores: false,
            reads: vec![Region::whole(b)],
            writes: vec![Region::range(b, 0, 1 << 10)],
            l1_extra_bytes: 12345,
            ctas: 1,
            smem_per_cta: 0,
        };
        m.launch(&k);
        let c = m.counters();
        assert_eq!(c.l2_bytes, (1 << 20) + (1 << 10));
        assert_eq!(c.l1_bytes, c.l2_bytes + 12345);
        assert!(c.dram_bytes > 0);
        assert!(c.dram_gb() > 0.0 && c.l1_gb() > 0.0 && c.l2_gb() > 0.0);
    }
}
