//! Core network value types: addresses, prefixes, and identifiers.

use std::fmt;
use std::str::FromStr;

/// An IPv4 address as a host-order `u32`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ip(pub u32);

impl Ip {
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ip(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    pub fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }
}

impl fmt::Display for Ip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl fmt::Debug for Ip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// Error parsing an address or prefix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AddrParseError(pub String);

impl fmt::Display for AddrParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid address: {}", self.0)
    }
}

impl std::error::Error for AddrParseError {}

impl FromStr for Ip {
    type Err = AddrParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.split('.').collect();
        if parts.len() != 4 {
            return Err(AddrParseError(s.to_string()));
        }
        let mut v = 0u32;
        for p in parts {
            let octet: u32 = p.parse().map_err(|_| AddrParseError(s.to_string()))?;
            if octet > 255 {
                return Err(AddrParseError(s.to_string()));
            }
            v = (v << 8) | octet;
        }
        Ok(Ip(v))
    }
}

/// An IPv4 prefix in CIDR form. The address is stored canonicalized
/// (host bits zeroed), so equal prefixes compare equal.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Prefix {
    addr: u32,
    len: u8,
}

impl Prefix {
    /// Construct a prefix, zeroing host bits.
    pub fn new(addr: Ip, len: u8) -> Self {
        assert!(len <= 32, "prefix length {len} > 32");
        Prefix { addr: addr.0 & Self::mask_of(len), len }
    }

    /// The all-addresses prefix `0.0.0.0/0`.
    pub const DEFAULT: Prefix = Prefix { addr: 0, len: 0 };

    fn mask_of(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    pub fn addr(self) -> Ip {
        Ip(self.addr)
    }

    /// Prefix length in bits (a length of 0 is the default route, not
    /// an "empty" prefix — hence no `is_empty`).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(self) -> u8 {
        self.len
    }

    /// The network mask as an address.
    pub fn mask(self) -> Ip {
        Ip(Self::mask_of(self.len))
    }

    /// Whether `ip` falls inside this prefix.
    pub fn contains_ip(self, ip: Ip) -> bool {
        (ip.0 & Self::mask_of(self.len)) == self.addr
    }

    /// Whether `other` is a subset of (or equal to) this prefix.
    pub fn contains(self, other: Prefix) -> bool {
        other.len >= self.len && (other.addr & Self::mask_of(self.len)) == self.addr
    }

    /// Whether the two prefixes share any address.
    pub fn overlaps(self, other: Prefix) -> bool {
        self.contains(other) || other.contains(self)
    }

    /// The `i`-th host address within the prefix.
    pub fn host(self, i: u32) -> Ip {
        debug_assert!(self.len == 32 || i < (1u32 << (32 - self.len)));
        Ip(self.addr | i)
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", Ip(self.addr), self.len)
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl FromStr for Prefix {
    type Err = AddrParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s.split_once('/').ok_or_else(|| AddrParseError(s.to_string()))?;
        let addr: Ip = addr.parse()?;
        let len: u8 = len.parse().map_err(|_| AddrParseError(s.to_string()))?;
        if len > 32 {
            return Err(AddrParseError(s.to_string()));
        }
        Ok(Prefix::new(addr, len))
    }
}

/// Convert a dotted netmask (e.g. `255.255.255.252`) to a prefix
/// length, if it is a valid contiguous mask.
pub fn mask_to_len(mask: Ip) -> Option<u8> {
    let m = mask.0;
    let len = m.leading_ones() as u8;
    if m == Prefix::mask_of_pub(len) {
        Some(len)
    } else {
        None
    }
}

impl Prefix {
    fn mask_of_pub(len: u8) -> u32 {
        Self::mask_of(len)
    }
}

/// A device identifier, dense per network model (assigned in hostname
/// order by the lowering pass).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A globally interned interface identifier (see
/// [`crate::facts::Registry`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct IfaceId(pub u32);

impl fmt::Debug for IfaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// A (device, interface) port — the endpoint of a link.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Port {
    pub node: NodeId,
    pub iface: IfaceId,
}

/// Routing protocol discriminator, ordered by typical administrative
/// distance (connected < static < OSPF < BGP — eBGP's 20 is modeled
/// after OSPF per the common "prefer IGP for internal" simplification
/// used by the paper's fat-tree setups, where protocols never mix for
/// the same prefix unless redistributed).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Proto {
    Connected,
    Static,
    Ospf,
    Rip,
    Bgp,
}

impl Proto {
    /// Administrative distance used when merging RIBs into the FIB.
    pub fn admin_distance(self) -> u8 {
        match self {
            Proto::Connected => 0,
            Proto::Static => 1,
            Proto::Ospf => 110,
            Proto::Rip => 120,
            Proto::Bgp => 200,
        }
    }
}

impl fmt::Display for Proto {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Proto::Connected => "connected",
            Proto::Static => "static",
            Proto::Ospf => "ospf",
            Proto::Rip => "rip",
            Proto::Bgp => "bgp",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ip_round_trip() {
        let ip: Ip = "10.1.2.3".parse().unwrap();
        assert_eq!(ip, Ip::new(10, 1, 2, 3));
        assert_eq!(ip.to_string(), "10.1.2.3");
        assert!("10.1.2".parse::<Ip>().is_err());
        assert!("10.1.2.256".parse::<Ip>().is_err());
        assert!("10.1.2.x".parse::<Ip>().is_err());
    }

    #[test]
    fn prefix_canonicalizes_host_bits() {
        let p = Prefix::new(Ip::new(10, 1, 2, 3), 24);
        assert_eq!(p.to_string(), "10.1.2.0/24");
        assert_eq!(p, "10.1.2.0/24".parse().unwrap());
    }

    #[test]
    fn prefix_contains() {
        let p: Prefix = "10.0.0.0/8".parse().unwrap();
        let q: Prefix = "10.1.0.0/16".parse().unwrap();
        assert!(p.contains(q));
        assert!(!q.contains(p));
        assert!(p.overlaps(q));
        assert!(p.contains_ip("10.255.255.255".parse().unwrap()));
        assert!(!p.contains_ip("11.0.0.0".parse().unwrap()));
        assert!(Prefix::DEFAULT.contains(p));
    }

    #[test]
    fn disjoint_prefixes_do_not_overlap() {
        let p: Prefix = "10.0.0.0/9".parse().unwrap();
        let q: Prefix = "10.128.0.0/9".parse().unwrap();
        assert!(!p.overlaps(q));
    }

    #[test]
    fn mask_conversion() {
        assert_eq!(mask_to_len("255.255.255.252".parse().unwrap()), Some(30));
        assert_eq!(mask_to_len("255.255.255.255".parse().unwrap()), Some(32));
        assert_eq!(mask_to_len("0.0.0.0".parse().unwrap()), Some(0));
        assert_eq!(mask_to_len("255.0.255.0".parse().unwrap()), None);
    }

    #[test]
    fn zero_length_prefix() {
        let p = Prefix::DEFAULT;
        assert!(p.contains_ip(Ip::new(255, 1, 2, 3)));
        assert_eq!(p.to_string(), "0.0.0.0/0");
    }

    #[test]
    fn host_addressing() {
        let p: Prefix = "10.0.0.4/30".parse().unwrap();
        assert_eq!(p.host(1).to_string(), "10.0.0.5");
        assert_eq!(p.host(2).to_string(), "10.0.0.6");
    }

    #[test]
    fn proto_admin_distance_ordering() {
        assert!(Proto::Connected.admin_distance() < Proto::Static.admin_distance());
        assert!(Proto::Static.admin_distance() < Proto::Ospf.admin_distance());
        assert!(Proto::Ospf.admin_distance() < Proto::Rip.admin_distance());
        assert!(Proto::Rip.admin_distance() < Proto::Bgp.admin_distance());
    }
}
