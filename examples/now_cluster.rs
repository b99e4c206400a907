//! A Network-of-Workstations send (§1, §2.4): a process on the local
//! workstation pushes messages to *remote* nodes with SHRIMP-1
//! mapped-out pages — one user-mode store per message, the destination
//! fixed per page by the kernel at map time. The workstation is node 0
//! of a cluster simulation, which carries each message through the
//! receiving node's IOMMU into the page that node granted.
//!
//! ```text
//! cargo run --release --example now_cluster
//! ```

use udma::{BufferSpec, ClusterConfig, ClusterSim, DmaMethod, Machine, ProcessSpec};
use udma_cpu::{ProgramBuilder, Reg};
use udma_mem::{Perms, VirtAddr, PAGE_SIZE};
use udma_nic::{Destination, DMA_STARTED};

/// The address space each receiver grants, and the VA of its twin page.
const ASID: u32 = 1;
const TWIN_VA: VirtAddr = VirtAddr::new(4 * PAGE_SIZE);

fn main() {
    let mut m = Machine::with_method(DmaMethod::Shrimp1);

    // One send buffer of 3 pages; page i will be mapped out to node
    // i + 1 (fan-out needs per-page destinations, configured below).
    let spec = ProcessSpec { buffers: vec![BufferSpec::rw(3)], ..Default::default() };
    let pid = m.spawn(&spec, |env| {
        // One store per page: the shadow address names the source page,
        // the data carries the message length. Then read the status.
        let mut b = ProgramBuilder::new();
        for page in 0..3u64 {
            let s = env.shadow_of(env.addr_in(0, page * PAGE_SIZE));
            b = b.store(s.as_u64(), 64u64).load(Reg::R0, s.as_u64());
        }
        b.halt().build()
    });

    // Configure the mapped-out table: page i of the buffer → node i + 1.
    let first_frame = m.env(pid).buffer(0).first_frame;
    let core = m.engine_mut().core_mut();
    for page in 0..3u32 {
        core.set_mapped_out(
            first_frame.offset(u64::from(page)),
            Destination::Remote { node: page + 1, asid: ASID, va: TWIN_VA },
        );
    }

    // Seed each page with a distinct message.
    for page in 0..3u64 {
        let frame = m.env(pid).buffer(0).first_frame.offset(page);
        let msg = format!("message for node {}!", page + 1);
        let mut bytes = msg.into_bytes();
        bytes.resize(64, b' ');
        m.memory().borrow_mut().write_bytes(frame.base(), &bytes).unwrap();
    }

    m.run(10_000);
    assert_eq!(m.reg(pid, Reg::R0), DMA_STARTED);

    // The cluster: the workstation plus three receivers, each granting
    // and pinning its twin page.
    let mut cfg = ClusterConfig::new(4);
    cfg.link = m.config().link;
    cfg.pin_on_post = true;
    let mut sim = ClusterSim::new(cfg);
    for node in 1..4 {
        sim.grant(node, ASID, TWIN_VA, 1, Perms::READ_WRITE).unwrap();
    }
    let sends = m.take_remote_sends();
    let ids: Vec<_> = sends
        .iter()
        .map(|s| sim.post_bytes(0, s.node, s.asid, s.va, s.bytes.clone(), s.at).unwrap())
        .collect();
    sim.run();

    for (send, id) in sends.iter().zip(ids) {
        let x = sim.xfer(id);
        let pa = sim.probe(send.node, send.asid, send.va).expect("deposit translated");
        let mut buf = vec![0u8; 64];
        sim.read_mem(send.node, pa, &mut buf).unwrap();
        println!(
            "transfer {id}: node{}:{} (pa {pa})  sent at t={}  acked at t={}  {:?}  payload = {:?}",
            send.node,
            send.va,
            send.at,
            x.finished.expect("terminal"),
            x.state,
            String::from_utf8_lossy(&buf[..22]),
        );
    }
    println!(
        "\n3 messages delivered to 3 workstations, 2 user instructions \
         each, {} kernel DMA syscalls.",
        m.kernel().stats().dma_syscalls
    );
}
