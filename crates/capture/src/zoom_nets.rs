//! The Zoom server IP list and its ownership structure (Appendix B).
//!
//! Zoom publishes the IP networks its servers use so that operators can
//! configure firewalls; the paper's capture program matches against this
//! list statelessly. At the time of the paper the list held 117 IPv4
//! networks (/16 … /27, 427,168 addresses), split between Zoom's own AS
//! (36.7 %), AWS (39.6 %), and Oracle Cloud (23.2 %). This module models
//! the list and its metadata; a synthetic-but-structurally-identical
//! instance is generated by `zoom-sim`'s infrastructure module.

use zoom_wire::cidr::Cidr;

/// Who announces a given Zoom network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Owner {
    /// Zoom's own AS30103.
    ZoomAs,
    /// Amazon Web Services ranges.
    Aws,
    /// Oracle Cloud ranges.
    OracleCloud,
    /// The remaining ~0.5 % (Chinese ISPs, Level3, Equinix).
    Other,
}

impl Owner {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Owner::ZoomAs => "Zoom (AS30103)",
            Owner::Aws => "Amazon Web Services",
            Owner::OracleCloud => "Oracle Cloud",
            Owner::Other => "Other",
        }
    }
}

/// One published network with its owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZoomNetwork {
    /// The published prefix.
    pub cidr: Cidr,
    /// Who announces it (Zoom directly or a hosting provider).
    pub owner: Owner,
}

/// The full published list. The capture filter compiles it into its
/// address-class table ([`crate::pipeline::CapturePipeline::new`]); the
/// list itself is not searched per packet.
#[derive(Debug, Clone, Default)]
pub struct ZoomIpList {
    networks: Vec<ZoomNetwork>,
}

impl ZoomIpList {
    /// Build from networks.
    pub fn from_networks(networks: Vec<ZoomNetwork>) -> Self {
        ZoomIpList { networks }
    }

    /// All networks.
    pub fn networks(&self) -> &[ZoomNetwork] {
        &self.networks
    }

    /// Total number of covered addresses.
    pub fn total_addresses(&self) -> u64 {
        self.networks.iter().map(|n| n.cidr.size()).sum()
    }

    /// Address counts per owner — the Appendix B breakdown.
    pub fn owner_breakdown(&self) -> Vec<(Owner, u64)> {
        let mut counts: Vec<(Owner, u64)> = Vec::new();
        for owner in [Owner::ZoomAs, Owner::Aws, Owner::OracleCloud, Owner::Other] {
            let total: u64 = self
                .networks
                .iter()
                .filter(|n| n.owner == owner)
                .map(|n| n.cidr.size())
                .sum();
            counts.push((owner, total));
        }
        counts
    }
}

/// A small, real excerpt of Zoom's published list — enough for tests and
/// examples to exercise realistic addresses. (The complete synthetic list
/// used by campus-scale experiments is produced by `zoom_sim::infra`.)
pub fn sample_list() -> ZoomIpList {
    let nets = [
        ("3.7.35.0/25", Owner::Aws),
        ("3.21.137.128/25", Owner::Aws),
        ("3.235.69.0/25", Owner::Aws),
        ("8.5.128.0/23", Owner::ZoomAs),
        ("50.239.202.0/23", Owner::ZoomAs),
        ("52.202.62.192/26", Owner::Aws),
        ("64.125.62.0/24", Owner::Other),
        ("101.36.167.0/24", Owner::Other),
        ("115.114.56.192/26", Owner::Other),
        ("129.151.0.0/19", Owner::OracleCloud),
        ("129.159.0.0/20", Owner::OracleCloud),
        ("130.61.164.0/22", Owner::OracleCloud),
        ("147.124.96.0/19", Owner::ZoomAs),
        ("160.1.56.128/25", Owner::Other),
        ("170.114.0.0/16", Owner::ZoomAs),
        ("173.231.80.0/20", Owner::ZoomAs),
        ("192.204.12.0/22", Owner::ZoomAs),
        ("193.122.16.0/20", Owner::OracleCloud),
        ("198.251.128.0/17", Owner::ZoomAs),
        ("204.80.104.0/21", Owner::ZoomAs),
        ("209.9.211.0/24", Owner::ZoomAs),
        ("213.19.144.0/24", Owner::Other),
    ];
    ZoomIpList::from_networks(
        nets.iter()
            .map(|(c, o)| ZoomNetwork {
                cidr: c.parse().expect("static CIDR"),
                owner: *o,
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    #[test]
    fn sample_list_lookup() {
        let list = sample_list();
        let owner = |ip: Ipv4Addr| {
            let net = list.networks().iter().find(|n| n.cidr.contains(ip));
            net.map(|n| n.owner)
        };
        assert_eq!(owner(Ipv4Addr::new(170, 114, 12, 34)), Some(Owner::ZoomAs));
        assert_eq!(
            owner(Ipv4Addr::new(129, 151, 1, 2)),
            Some(Owner::OracleCloud)
        );
        assert_eq!(owner(Ipv4Addr::new(8, 8, 8, 8)), None);
    }

    #[test]
    fn total_addresses_sums_sizes() {
        let list = sample_list();
        let expected: u64 = list.networks().iter().map(|n| n.cidr.size()).sum();
        assert_eq!(list.total_addresses(), expected);
        assert!(expected > 100_000);
    }

    #[test]
    fn breakdown_covers_all_owners() {
        let list = sample_list();
        let breakdown = list.owner_breakdown();
        assert_eq!(breakdown.len(), 4);
        let total: u64 = breakdown.iter().map(|(_, n)| n).sum();
        assert_eq!(total, list.total_addresses());
    }

    #[test]
    fn owner_labels() {
        assert!(Owner::ZoomAs.label().contains("30103"));
        assert_eq!(Owner::Aws.label(), "Amazon Web Services");
    }
}
