//! Synthetic Zoom server infrastructure (Appendix B of the paper).
//!
//! The paper analyzed Zoom's published IP list (117 IPv4 networks, /16 to
//! /27, 427,168 addresses; 36.7 % in Zoom's AS30103, 39.6 % AWS, 23.2 %
//! Oracle Cloud, 0.5 % other), reverse-resolved every address, and found
//! 5,452 multi-media routers (MMRs — Zoom's SFUs) and 256 zone controllers
//! (ZCs — STUN servers) named `zoom<loc><id><type>.<loc>.zoom.us`,
//! distributed over the sites of Table 7.
//!
//! We cannot ship Zoom's proprietary data feed, so this module *generates*
//! an infrastructure database with exactly that structure: the address
//! arithmetic, name parsing, and per-site rollups — the actual deliverable
//! code — run unchanged against the real list.

use crate::time::Nanos;
use rand::Rng;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use zoom_capture::zoom_nets::{Owner, ZoomIpList, ZoomNetwork};
use zoom_wire::cidr::Cidr;

/// Server roles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServerType {
    /// Multi-media router — Zoom's SFU.
    Mmr,
    /// Zone controller — STUN server, connection brokering.
    Zc,
}

/// One deployment site (a row of Table 7).
#[derive(Debug, Clone, Copy)]
pub struct Site {
    /// Human-readable location, as Table 7 prints it.
    pub location: &'static str,
    /// Two-letter code used in server names.
    pub code: &'static str,
    pub mmrs: u32,
    pub zcs: u32,
}

/// Table 7, encoded. MMRs sum to 5,452 and ZCs to 256.
pub const SITES: &[Site] = &[
    Site {
        location: "United States, California",
        code: "sjc",
        mmrs: 1410,
        zcs: 68,
    },
    Site {
        location: "United States, New York",
        code: "ny",
        mmrs: 1280,
        zcs: 62,
    },
    Site {
        location: "United States, Denver",
        code: "dv",
        mmrs: 758,
        zcs: 21,
    },
    Site {
        location: "United States, Washington D.C.",
        code: "iad",
        mmrs: 166,
        zcs: 4,
    },
    Site {
        location: "United States, Seattle",
        code: "sea",
        mmrs: 96,
        zcs: 12,
    },
    Site {
        location: "Netherlands, Amsterdam",
        code: "am",
        mmrs: 419,
        zcs: 21,
    },
    Site {
        location: "China, Hongkong",
        code: "hk",
        mmrs: 274,
        zcs: 8,
    },
    // The Frankfurt quirk: named with the Denver code, geolocated in
    // Germany (Appendix B).
    Site {
        location: "Germany, Frankfurt",
        code: "dv",
        mmrs: 214,
        zcs: 2,
    },
    Site {
        location: "Australia, Sydney/Melbourne",
        code: "sy",
        mmrs: 210,
        zcs: 20,
    },
    Site {
        location: "India, Mumbai/Hyderabad",
        code: "mb",
        mmrs: 196,
        zcs: 10,
    },
    Site {
        location: "Japan, Tokyo",
        code: "ty",
        mmrs: 128,
        zcs: 2,
    },
    Site {
        location: "Brasil, Sao Paulo",
        code: "sp",
        mmrs: 124,
        zcs: 6,
    },
    Site {
        location: "Canada, Toronto",
        code: "tr",
        mmrs: 93,
        zcs: 12,
    },
    Site {
        location: "China, Mainland",
        code: "cn",
        mmrs: 84,
        zcs: 8,
    },
];

/// One server in the database.
#[derive(Debug, Clone)]
pub struct ZoomServer {
    pub ip: Ipv4Addr,
    pub name: String,
    pub server_type: ServerType,
    pub site: &'static Site,
}

/// The generated infrastructure: IP list, servers, and lookup tables.
#[derive(Debug)]
pub struct Infrastructure {
    pub ip_list: ZoomIpList,
    pub servers: Vec<ZoomServer>,
    mmr_indices: Vec<usize>,
    zc_indices: Vec<usize>,
}

/// Target totals from Appendix B.
pub const TOTAL_NETWORKS: usize = 117;
pub const TOTAL_ADDRESSES: u64 = 427_168;
const ZOOM_AS_ADDRS: u64 = 156_672; // 36.7 %
const AWS_ADDRS: u64 = 169_152; // 39.6 %
const ORACLE_ADDRS: u64 = 99_456; // 23.2 %
const OTHER_ADDRS: u64 = TOTAL_ADDRESSES - ZOOM_AS_ADDRS - AWS_ADDRS - ORACLE_ADDRS;

/// Decompose `budget` addresses into power-of-two prefixes no larger than
/// /16 and no smaller than /27, carving from `base`/8 space.
fn carve(base: u8, budget: u64) -> Vec<Cidr> {
    let mut out = Vec::new();
    let mut remaining = budget;
    let mut cursor = u32::from(Ipv4Addr::new(base, 0, 0, 0));
    while remaining > 0 {
        // Largest power of two ≤ remaining, capped at /16 (65,536) and
        // floored at /27 (32).
        let mut block = 1u64 << (63 - remaining.leading_zeros() as u64);
        block = block.clamp(32, 65_536);
        if block > remaining {
            block = 32; // final sliver: one /27 (budgets are /27-aligned)
        }
        let prefix_len = 32 - (block as u32).trailing_zeros() as u8;
        out.push(Cidr::new(Ipv4Addr::from(cursor), prefix_len));
        cursor += block as u32 * 2; // leave gaps so networks are disjoint
        remaining -= block.min(remaining);
    }
    out
}

/// Split prefixes (each split turns one /n into two /(n+1)) until the list
/// reaches `target` entries, preserving total coverage.
fn split_to_count(mut nets: Vec<(Cidr, Owner)>, target: usize) -> Vec<(Cidr, Owner)> {
    while nets.len() < target {
        // Split the currently largest network.
        let (idx, _) = nets
            .iter()
            .enumerate()
            .max_by_key(|(_, (c, _))| c.size())
            .expect("non-empty");
        let (c, o) = nets.remove(idx);
        if c.prefix_len() >= 27 {
            break; // cannot split further within the /16../27 band
        }
        let half = c.size() / 2;
        let a = Cidr::new(c.address(), c.prefix_len() + 1);
        let b = Cidr::new(c.nth(half), c.prefix_len() + 1);
        nets.push((a, o));
        nets.push((b, o));
    }
    nets
}

impl Infrastructure {
    /// Generate the synthetic infrastructure. Deterministic — no RNG: the
    /// structure is fixed by the paper's published numbers.
    pub fn generate() -> Infrastructure {
        let mut nets: Vec<(Cidr, Owner)> = Vec::new();
        for c in carve(170, ZOOM_AS_ADDRS) {
            nets.push((c, Owner::ZoomAs));
        }
        for c in carve(52, AWS_ADDRS) {
            nets.push((c, Owner::Aws));
        }
        for c in carve(129, ORACLE_ADDRS) {
            nets.push((c, Owner::OracleCloud));
        }
        for c in carve(101, OTHER_ADDRS) {
            nets.push((c, Owner::Other));
        }
        let nets = split_to_count(nets, TOTAL_NETWORKS);
        let ip_list = ZoomIpList::from_networks(
            nets.iter()
                .map(|(cidr, owner)| ZoomNetwork {
                    cidr: *cidr,
                    owner: *owner,
                })
                .collect(),
        );

        // Allocate server addresses from the Zoom-AS networks, in order.
        let zoom_nets: Vec<Cidr> = nets
            .iter()
            .filter(|(_, o)| *o == Owner::ZoomAs)
            .map(|(c, _)| *c)
            .collect();
        let mut alloc = AddressAllocator::new(zoom_nets);

        let mut servers = Vec::new();
        for site in SITES {
            for id in 0..site.mmrs {
                let ip = alloc.next();
                servers.push(ZoomServer {
                    ip,
                    name: format!("zoom{}{}mmr.{}.zoom.us", site.code, id + 1, site.code),
                    server_type: ServerType::Mmr,
                    site,
                });
            }
            for id in 0..site.zcs {
                let ip = alloc.next();
                servers.push(ZoomServer {
                    ip,
                    name: format!("zoom{}{}zc.{}.zoom.us", site.code, id + 1, site.code),
                    server_type: ServerType::Zc,
                    site,
                });
            }
        }

        let mmr_indices = servers
            .iter()
            .enumerate()
            .filter(|(_, s)| s.server_type == ServerType::Mmr)
            .map(|(i, _)| i)
            .collect();
        let zc_indices = servers
            .iter()
            .enumerate()
            .filter(|(_, s)| s.server_type == ServerType::Zc)
            .map(|(i, _)| i)
            .collect();

        Infrastructure {
            ip_list,
            servers,
            mmr_indices,
            zc_indices,
        }
    }

    /// Pick a random MMR, preferring US sites the way a US campus would.
    pub fn pick_mmr<R: Rng>(&self, rng: &mut R) -> &ZoomServer {
        // 85 % of the time pick from the first 3,710 MMRs (US sites).
        let us = 3_710.min(self.mmr_indices.len());
        let idx = if rng.gen_bool(0.85) && us > 0 {
            self.mmr_indices[rng.gen_range(0..us)]
        } else {
            self.mmr_indices[rng.gen_range(0..self.mmr_indices.len())]
        };
        &self.servers[idx]
    }

    /// Pick a random zone controller.
    pub fn pick_zc<R: Rng>(&self, rng: &mut R) -> &ZoomServer {
        &self.servers[self.zc_indices[rng.gen_range(0..self.zc_indices.len())]]
    }

    /// The Table 7 rollup: (geo location, MMR count, ZC count), aggregated
    /// from reverse DNS + geo the way the paper built it.
    pub fn table7(&self) -> Vec<(String, u32, u32)> {
        let mut counts: HashMap<&str, (u32, u32)> = HashMap::new();
        for s in &self.servers {
            let entry = counts.entry(s.site.location).or_default();
            match s.server_type {
                ServerType::Mmr => entry.0 += 1,
                ServerType::Zc => entry.1 += 1,
            }
        }
        let mut rows: Vec<(String, u32, u32)> = counts
            .into_iter()
            .map(|(loc, (m, z))| (loc.to_string(), m, z))
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1));
        rows
    }
}

/// Parse a server name back into `(site_code, id, type)` — the inverse of
/// the naming scheme, used when classifying reverse-DNS results.
pub fn parse_server_name(name: &str) -> Option<(&str, u32, ServerType)> {
    let host = name.strip_suffix(".zoom.us")?;
    let (front, _site) = host.split_once('.')?;
    let rest = front.strip_prefix("zoom")?;
    let (body, server_type) = if let Some(b) = rest.strip_suffix("mmr") {
        (b, ServerType::Mmr)
    } else if let Some(b) = rest.strip_suffix("zc") {
        (b, ServerType::Zc)
    } else {
        return None;
    };
    let split = body.find(|c: char| c.is_ascii_digit())?;
    let (code, digits) = body.split_at(split);
    let id: u32 = digits.parse().ok()?;
    Some((code, id, server_type))
}

/// Sequential allocator over a list of prefixes.
struct AddressAllocator {
    nets: Vec<Cidr>,
    net_idx: usize,
    offset: u64,
}

impl AddressAllocator {
    fn new(nets: Vec<Cidr>) -> Self {
        AddressAllocator {
            nets,
            net_idx: 0,
            offset: 1, // skip the network address
        }
    }

    fn next(&mut self) -> Ipv4Addr {
        let net = self.nets[self.net_idx];
        let ip = net.nth(self.offset);
        self.offset += 1;
        if self.offset >= net.size() - 1 {
            self.net_idx = (self.net_idx + 1) % self.nets.len();
            self.offset = 1;
        }
        ip
    }
}

/// A simple diurnal load profile: relative meeting-arrival intensity for a
/// time of day, normalized to peak 1.0. Mirrors Fig. 14: busy 9:00–17:00
/// with a lunch dip, spikes handled separately by the campus generator.
pub fn diurnal_intensity(time_of_day: Nanos) -> f64 {
    let hour = time_of_day as f64 / 3.6e12;
    let h = hour % 24.0;
    if h < 8.0 {
        0.05
    } else if h < 9.0 {
        0.3
    } else if h < 12.0 {
        1.0
    } else if h < 13.0 {
        0.6 // lunch dip
    } else if h < 17.0 {
        0.95
    } else if h < 20.0 {
        0.35
    } else {
        0.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_match_appendix_b() {
        let infra = Infrastructure::generate();
        assert_eq!(infra.ip_list.networks().len(), TOTAL_NETWORKS);
        assert_eq!(infra.ip_list.total_addresses(), TOTAL_ADDRESSES);
        let mmrs = infra
            .servers
            .iter()
            .filter(|s| s.server_type == ServerType::Mmr)
            .count();
        let zcs = infra
            .servers
            .iter()
            .filter(|s| s.server_type == ServerType::Zc)
            .count();
        assert_eq!(mmrs, 5_452);
        assert_eq!(zcs, 256);
    }

    #[test]
    fn owner_fractions_match() {
        let infra = Infrastructure::generate();
        let breakdown = infra.ip_list.owner_breakdown();
        let total = TOTAL_ADDRESSES as f64;
        for (owner, addrs) in breakdown {
            let frac = addrs as f64 / total;
            let expected = match owner {
                Owner::ZoomAs => 0.367,
                Owner::Aws => 0.396,
                Owner::OracleCloud => 0.232,
                Owner::Other => 0.005,
            };
            assert!(
                (frac - expected).abs() < 0.005,
                "{owner:?}: {frac} vs {expected}"
            );
        }
    }

    #[test]
    fn all_server_ips_are_in_the_list_and_unique() {
        let infra = Infrastructure::generate();
        let mut seen = std::collections::HashSet::new();
        let nets = infra.ip_list.networks();
        for s in &infra.servers {
            let listed = nets.iter().any(|n| n.cidr.contains(s.ip));
            assert!(listed, "{} not in list", s.ip);
            assert!(seen.insert(s.ip), "duplicate {}", s.ip);
        }
    }

    #[test]
    fn names_roundtrip_through_parser() {
        let infra = Infrastructure::generate();
        let s = &infra.servers[0];
        let (code, id, ty) = parse_server_name(&s.name).unwrap();
        assert_eq!(code, s.site.code);
        assert_eq!(id, 1);
        assert_eq!(ty, ServerType::Mmr);
        assert!(parse_server_name("www.zoom.us").is_none());
        assert!(parse_server_name("zoomny5mmr.ny.example.com").is_none());
    }

    #[test]
    fn table7_shape() {
        let infra = Infrastructure::generate();
        let rows = infra.table7();
        assert_eq!(rows.len(), SITES.len());
        // Sorted by MMR count descending; California first.
        assert!(rows[0].0.contains("California"));
        assert_eq!(rows[0].1, 1410);
        let mmr_total: u32 = rows.iter().map(|r| r.1).sum();
        let zc_total: u32 = rows.iter().map(|r| r.2).sum();
        assert_eq!(mmr_total, 5_452);
        assert_eq!(zc_total, 256);
    }

    #[test]
    fn frankfurt_quirk_preserved() {
        let frankfurt = SITES
            .iter()
            .find(|s| s.location.contains("Frankfurt"))
            .unwrap();
        let denver = SITES
            .iter()
            .find(|s| s.location.contains("Denver"))
            .unwrap();
        assert_eq!(frankfurt.code, denver.code);
    }

    #[test]
    fn picks_are_deterministic_per_seed() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let infra = Infrastructure::generate();
        let a = infra.pick_mmr(&mut StdRng::seed_from_u64(5)).ip;
        let b = infra.pick_mmr(&mut StdRng::seed_from_u64(5)).ip;
        assert_eq!(a, b);
        let zc = infra.pick_zc(&mut StdRng::seed_from_u64(5));
        assert_eq!(zc.server_type, ServerType::Zc);
    }

    #[test]
    fn diurnal_profile_peaks_midmorning() {
        let h = |x: u64| diurnal_intensity(x * 3_600 * crate::time::SEC);
        assert!(h(10) > h(12)); // lunch dip
        assert!(h(10) > h(21)); // evening
        assert!(h(3) < 0.1); // night
    }
}
