//! Remote workstation memory: the "NOW" half of the story.
//!
//! The paper's interfaces (SHRIMP, Telegraphos) move data *between
//! workstations*: SHRIMP-1's mapped-out pages live on another node.
//! [`Cluster`] models the receive side of such a network — per-node
//! physical memories the DMA engine can deposit into over the link.
//! Only the data path is modelled (deposits appear after the wire time);
//! remote nodes do not initiate traffic of their own.
//!
//! Remote *virtual-address* DMA — receive-side translation, NACKed
//! faults, lossy links and node crashes — lives in the cluster
//! simulation (`udma::ClusterSim`), where every node is a full sender
//! and receiver.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use udma_mem::{MemFault, PhysAddr, PhysMemory};

/// A handle to the cluster's remote memories, shared between the engine
/// and the experiment code that inspects arrivals.
pub type SharedCluster = Rc<RefCell<Cluster>>;

/// Why a cluster access failed. Unlike a bare [`MemFault`], this keeps
/// "the node does not exist" distinct from "the node exists but the
/// address is bad", and names the node either way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RemoteError {
    /// The cluster has no node with this index.
    NoSuchNode {
        /// The requested node index.
        node: u32,
    },
    /// The node exists, but the access faulted in its memory (out of
    /// range, misaligned, …).
    Mem {
        /// The node the access was addressed to.
        node: u32,
        /// The underlying memory fault on that node.
        fault: MemFault,
    },
}

impl fmt::Display for RemoteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RemoteError::NoSuchNode { node } => write!(f, "no such cluster node {node}"),
            RemoteError::Mem { node, fault } => write!(f, "node {node}: {fault}"),
        }
    }
}

impl std::error::Error for RemoteError {}

/// The remote nodes reachable over the machine's link: one physical
/// memory per node.
#[derive(Clone, Debug)]
pub struct Cluster {
    nodes: Vec<PhysMemory>,
}

impl Cluster {
    /// Creates `count` remote nodes with `bytes_per_node` of memory each.
    pub fn new(count: u32, bytes_per_node: u64) -> Self {
        Cluster { nodes: (0..count).map(|_| PhysMemory::new(bytes_per_node)).collect() }
    }

    /// Wraps the cluster for sharing.
    pub fn shared(self) -> SharedCluster {
        Rc::new(RefCell::new(self))
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether `node` exists.
    pub fn has_node(&self, node: u32) -> bool {
        (node as usize) < self.nodes.len()
    }

    fn node(&self, node: u32) -> Result<&PhysMemory, RemoteError> {
        self.nodes.get(node as usize).ok_or(RemoteError::NoSuchNode { node })
    }

    /// Writes `data` into `node`'s memory at `addr` (the engine's deposit
    /// path).
    ///
    /// # Errors
    ///
    /// [`RemoteError::NoSuchNode`] if the node does not exist,
    /// [`RemoteError::Mem`] if the range is outside its memory.
    pub fn deposit(&mut self, node: u32, addr: PhysAddr, data: &[u8]) -> Result<(), RemoteError> {
        self.nodes
            .get_mut(node as usize)
            .ok_or(RemoteError::NoSuchNode { node })?
            .write_bytes(addr, data)
            .map_err(|fault| RemoteError::Mem { node, fault })
    }

    /// Reads from `node`'s memory (experiment inspection: "did the
    /// message arrive?").
    ///
    /// # Errors
    ///
    /// As for [`deposit`](Self::deposit).
    pub fn read(&self, node: u32, addr: PhysAddr, buf: &mut [u8]) -> Result<(), RemoteError> {
        self.node(node)?.read_bytes(addr, buf).map_err(|fault| RemoteError::Mem { node, fault })
    }

    /// Reads one word from a node's memory.
    ///
    /// # Errors
    ///
    /// As for [`read`](Self::read), plus misalignment.
    pub fn read_u64(&self, node: u32, addr: PhysAddr) -> Result<u64, RemoteError> {
        self.node(node)?.read_u64(addr).map_err(|fault| RemoteError::Mem { node, fault })
    }
}

/// Where a transfer's bytes land: locally or on a cluster node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Destination {
    /// This workstation's own memory.
    Local(PhysAddr),
    /// A remote node's memory, by physical address (SHRIMP-1 style:
    /// the sender proved the mapping at map-out time).
    Remote {
        /// Node index within the cluster.
        node: u32,
        /// Physical address on that node.
        addr: PhysAddr,
    },
}

impl std::fmt::Display for Destination {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Destination::Local(pa) => write!(f, "{pa}"),
            Destination::Remote { node, addr } => write!(f, "node{node}:{addr}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deposit_and_read_back() {
        let mut c = Cluster::new(2, 1 << 16);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
        c.deposit(1, PhysAddr::new(0x100), b"hello node").unwrap();
        let mut buf = [0u8; 10];
        c.read(1, PhysAddr::new(0x100), &mut buf).unwrap();
        assert_eq!(&buf, b"hello node");
        // Node 0 untouched.
        c.read(0, PhysAddr::new(0x100), &mut buf).unwrap();
        assert_eq!(buf, [0u8; 10]);
    }

    /// Pins the error shape: a nonexistent node and an out-of-range
    /// address are *distinct* failures, and both carry the node index.
    #[test]
    fn missing_node_and_bad_offset_are_distinct_errors() {
        let mut c = Cluster::new(1, 1 << 13);
        assert!(!c.has_node(1));
        // No such node: NoSuchNode, carrying the node id.
        assert_eq!(c.deposit(1, PhysAddr::new(0), b"x"), Err(RemoteError::NoSuchNode { node: 1 }));
        let mut b = [0u8; 1];
        assert_eq!(c.read(9, PhysAddr::new(0), &mut b), Err(RemoteError::NoSuchNode { node: 9 }));
        assert_eq!(c.read_u64(7, PhysAddr::new(0)), Err(RemoteError::NoSuchNode { node: 7 }));
        // Existing node, bad offset: Mem with the node's own BusError.
        let off = PhysAddr::new(1 << 13);
        assert_eq!(
            c.deposit(0, off, b"x"),
            Err(RemoteError::Mem { node: 0, fault: MemFault::BusError { pa: off } })
        );
        assert!(matches!(c.read(0, off, &mut b), Err(RemoteError::Mem { node: 0, .. })));
        // Display keeps them tellable-apart too.
        assert!(RemoteError::NoSuchNode { node: 1 }.to_string().contains("no such"));
        assert!(c.deposit(0, off, b"x").unwrap_err().to_string().contains("node 0"));
    }

    #[test]
    fn destination_display() {
        assert_eq!(Destination::Local(PhysAddr::new(0x40)).to_string(), "0x40");
        assert_eq!(
            Destination::Remote { node: 2, addr: PhysAddr::new(0x80) }.to_string(),
            "node2:0x80"
        );
    }
}
