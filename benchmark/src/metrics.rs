//! Metric names and units, and their computation from a finished run.
//!
//! Units name the clock: `sim_us` is simulated time (deterministic per
//! seed); `s`, `ms`, `us` and `ns` are host time; `1/ref` counts per
//! duration of the host reference computation.

use crate::sut::{table1_paper_us, TABLE1_ROWS};
use crate::workloads::Acc;
use std::collections::BTreeMap;

/// The end-to-end metrics, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("sim_init_us", "sim_us"),
    ("sim_xfer_p50_us", "sim_us"),
    ("sim_xfer_p99_us", "sim_us"),
    ("host_xfers_per_ref", "1/ref"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics, reported by every traced run (0 where the
/// workload does not load the layer).
pub const PER_LAYER: [(&str, &str); 45] = [
    ("cpu.instr_per_xfer", "count"),
    ("cpu.syscalls_per_xfer", "count"),
    ("bus.device_ops_per_xfer", "count"),
    ("bus.device_busy_us_per_xfer", "sim_us"),
    ("bus.ram_ops_per_xfer", "count"),
    ("nic.protocol.kernel_us", "sim_us"),
    ("nic.protocol.ext_shadow_us", "sim_us"),
    ("nic.protocol.rep5_us", "sim_us"),
    ("nic.protocol.key_based_us", "sim_us"),
    ("nic.protocol.table1_err_pct", "%"),
    ("nic.engine.rejects", "count"),
    ("nic.engine.key_mismatches", "count"),
    ("nic.engine.sequence_resets", "count"),
    ("os.dma_syscalls", "count"),
    ("nic.ring.desc_per_doorbell", "count"),
    ("nic.ring.rejected", "count"),
    ("nic.virt.chunks_per_xfer", "count"),
    ("nic.virt.faults_per_xfer", "count"),
    ("nic.virt.retries_per_xfer", "count"),
    ("nic.virt.stall_us_p50", "sim_us"),
    ("nic.virt.stall_us_p99", "sim_us"),
    ("iommu.iotlb_hit_ratio", "ratio"),
    ("iommu.walks_per_xfer", "count"),
    ("iommu.evictions_per_xfer", "count"),
    ("os.faults_serviced_per_xfer", "count"),
    ("os.fault_busy_us_per_xfer", "sim_us"),
    ("nic.net.retransmits_per_xfer", "count"),
    ("nic.net.nacks_per_xfer", "count"),
    ("nic.net.launches_per_xfer", "count"),
    ("nic.net.wire_efficiency", "ratio"),
    ("nic.net.link_stall_us_p99", "sim_us"),
    ("nic.link.ooo_discarded", "count"),
    ("nic.link.dup_ignored", "count"),
    ("os.remote.faults_serviced_per_xfer", "count"),
    ("os.remote.busy_us_per_xfer", "sim_us"),
    ("iommu.remote_hit_ratio", "ratio"),
    ("bus.sim.events_per_xfer", "count"),
    ("bus.sim.host_ns_per_event", "ns"),
    ("core.setup.host_ms_per_round", "ms"),
    ("core.run.host_us_per_xfer", "us"),
    ("core.post.host_us_per_xfer", "us"),
    ("os.fault_service.host_us_per_fault", "us"),
    ("verify.host_ms_per_round", "ms"),
    ("trace.overhead_pct", "%"),
    ("fail_frac", "ratio"),
];

/// `nic.protocol.<row>_us`, in Table-1 row order.
const PROTOCOL_KEYS: [&str; TABLE1_ROWS] = [
    "nic.protocol.kernel_us",
    "nic.protocol.ext_shadow_us",
    "nic.protocol.rep5_us",
    "nic.protocol.key_based_us",
];

pub type Values = BTreeMap<&'static str, f64>;

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nearest-rank quantile of an ascending sample (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

fn ps_to_us(ps: u64) -> f64 {
    ps as f64 / 1e6
}

/// Mean |sim − paper| / paper over the Table-1 rows, in percent.
pub fn table1_err_pct(acc: &Acc) -> f64 {
    let errs = (0..TABLE1_ROWS).map(|row| {
        let sim = ps_to_us(acc.row_ps[row]) / acc.row_xfers[row] as f64;
        (sim - table1_paper_us(row)).abs() / table1_paper_us(row)
    });
    100.0 * errs.sum::<f64>() / TABLE1_ROWS as f64
}

/// The sim-clock end-to-end metrics (deterministic per seed).
pub fn sim_metrics(acc: &Acc, out: &mut Values) {
    let lat = sorted(acc.latencies_ps.iter().map(|&ps| ps_to_us(ps)));
    out.insert("sim_init_us", ratio(ps_to_us(acc.sim_ps), acc.sim_xfers as f64));
    out.insert("sim_xfer_p50_us", quantile(&lat, 0.50));
    out.insert("sim_xfer_p99_us", quantile(&lat, 0.99));
}

/// The sim-clock per-layer metrics, from counters read in the sim set.
pub fn layer_metrics(acc: &Acc, out: &mut Values) {
    let l = &acc.layers;
    let m = &l.machine;
    let c = &l.cluster;
    let x = l.xfers as f64;
    let per = |v: u64| ratio(v as f64, x);
    let per_us = |ps: u64| ratio(ps_to_us(ps), x);
    out.insert("cpu.instr_per_xfer", per(m.instructions));
    out.insert("cpu.syscalls_per_xfer", per(m.syscalls));
    out.insert("bus.device_ops_per_xfer", per(m.device_ops));
    out.insert("bus.device_busy_us_per_xfer", per_us(m.device_busy_ps));
    out.insert("bus.ram_ops_per_xfer", per(m.ram_ops));
    for (row, key) in PROTOCOL_KEYS.into_iter().enumerate() {
        out.insert(key, ratio(ps_to_us(acc.row_ps[row]), acc.row_xfers[row] as f64));
    }
    let measured_table1 = acc.row_xfers.iter().all(|&n| n > 0);
    out.insert(
        "nic.protocol.table1_err_pct",
        if measured_table1 { table1_err_pct(acc) } else { 0.0 },
    );
    out.insert("nic.engine.rejects", m.engine_rejects as f64);
    out.insert("nic.engine.key_mismatches", m.key_mismatches as f64);
    out.insert("nic.engine.sequence_resets", m.sequence_resets as f64);
    out.insert("os.dma_syscalls", m.dma_syscalls as f64);
    out.insert("nic.ring.desc_per_doorbell", ratio(m.ring_launched as f64, m.doorbells as f64));
    out.insert("nic.ring.rejected", m.ring_rejected as f64);
    out.insert("nic.virt.chunks_per_xfer", per(m.virt_chunks));
    out.insert("nic.virt.faults_per_xfer", per(m.virt_faults));
    out.insert("nic.virt.retries_per_xfer", per(m.virt_retries));
    let stall = sorted(l.virt_stall_ps.iter().map(|&ps| ps_to_us(ps)));
    out.insert("nic.virt.stall_us_p50", quantile(&stall, 0.50));
    out.insert("nic.virt.stall_us_p99", quantile(&stall, 0.99));
    let lookups = (m.iotlb_hits + m.iotlb_misses) as f64;
    out.insert("iommu.iotlb_hit_ratio", ratio(m.iotlb_hits as f64, lookups));
    out.insert("iommu.walks_per_xfer", per(m.iotlb_misses));
    out.insert("iommu.evictions_per_xfer", per(m.iotlb_evictions));
    out.insert("os.faults_serviced_per_xfer", per(m.faults_serviced));
    out.insert("os.fault_busy_us_per_xfer", per_us(m.fault_busy_ps));
    out.insert("nic.net.retransmits_per_xfer", per(l.wire.retransmits));
    out.insert("nic.net.nacks_per_xfer", per(l.wire.nacks));
    out.insert("nic.net.launches_per_xfer", per(l.wire.launches));
    out.insert("nic.net.wire_efficiency", ratio(l.remote_moved as f64, l.wire.wire_bytes as f64));
    let link = sorted(l.link_stall_ps.iter().map(|&ps| ps_to_us(ps)));
    out.insert("nic.net.link_stall_us_p99", quantile(&link, 0.99));
    out.insert("nic.link.ooo_discarded", c.ooo_discarded as f64);
    out.insert("nic.link.dup_ignored", c.dup_ignored as f64);
    out.insert("os.remote.faults_serviced_per_xfer", per(c.remote_faults_serviced));
    out.insert("os.remote.busy_us_per_xfer", per_us(c.remote_fault_busy_ps));
    let remote_lookups = (c.remote_hits + c.remote_misses) as f64;
    out.insert("iommu.remote_hit_ratio", ratio(c.remote_hits as f64, remote_lookups));
    out.insert("bus.sim.events_per_xfer", per(c.events));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_keys_follow_table1_row_order() {
        for (row, key) in PROTOCOL_KEYS.iter().enumerate() {
            let name = crate::sut::table1_row_name(row);
            assert_eq!(*key, format!("nic.protocol.{name}_us"));
        }
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v = sorted((1..=100).map(f64::from));
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
