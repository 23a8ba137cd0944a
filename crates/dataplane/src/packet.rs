//! Packets and flow identifiers.

use std::fmt;
use std::net::SocketAddrV4;

/// Transport protocol of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Protocol {
    /// ICMP (protocol number 1).
    Icmp,
    /// TCP (protocol number 6).
    Tcp,
    /// UDP (protocol number 17).
    Udp,
    /// Any other IP protocol number.
    Other(u8),
}

impl Protocol {
    /// The IANA protocol number.
    pub fn number(self) -> u8 {
        match self {
            Protocol::Icmp => 1,
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
            Protocol::Other(n) => n,
        }
    }
}

impl From<u8> for Protocol {
    fn from(n: u8) -> Self {
        match n {
            1 => Protocol::Icmp,
            6 => Protocol::Tcp,
            17 => Protocol::Udp,
            other => Protocol::Other(other),
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Protocol::Icmp => write!(f, "icmp"),
            Protocol::Tcp => write!(f, "tcp"),
            Protocol::Udp => write!(f, "udp"),
            Protocol::Other(n) => write!(f, "proto({n})"),
        }
    }
}

/// The classic 5-tuple flow identifier.
///
/// This is exactly what VIF's near-zero-copy design copies into the enclave
/// per packet: the five tuple plus the packet size (§V-A, Fig. 7b).
///
/// # Example
///
/// ```
/// use vif_dataplane::{FiveTuple, Protocol};
/// let t = FiveTuple::from_socket_addrs(
///     "192.0.2.1:1234".parse().unwrap(),
///     "203.0.113.9:80".parse().unwrap(),
///     Protocol::Tcp,
/// );
/// assert_eq!(t.dst_port, 80);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FiveTuple {
    /// Source IPv4 address (big-endian u32).
    pub src_ip: u32,
    /// Destination IPv4 address (big-endian u32).
    pub dst_ip: u32,
    /// Source transport port.
    pub src_port: u16,
    /// Destination transport port.
    pub dst_port: u16,
    /// Transport protocol.
    pub protocol: Protocol,
}

impl FiveTuple {
    /// Builds a tuple from raw fields.
    pub fn new(src_ip: u32, dst_ip: u32, src_port: u16, dst_port: u16, protocol: Protocol) -> Self {
        FiveTuple {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            protocol,
        }
    }

    /// Builds a tuple from socket addresses.
    pub fn from_socket_addrs(src: SocketAddrV4, dst: SocketAddrV4, protocol: Protocol) -> Self {
        FiveTuple {
            src_ip: u32::from_be_bytes(src.ip().octets()),
            dst_ip: u32::from_be_bytes(dst.ip().octets()),
            src_port: src.port(),
            dst_port: dst.port(),
            protocol,
        }
    }

    /// Canonical 13-byte encoding (the sketch/lookup key).
    pub fn encode(&self) -> [u8; 13] {
        let mut out = [0u8; 13];
        out[0..4].copy_from_slice(&self.src_ip.to_be_bytes());
        out[4..8].copy_from_slice(&self.dst_ip.to_be_bytes());
        out[8..10].copy_from_slice(&self.src_port.to_be_bytes());
        out[10..12].copy_from_slice(&self.dst_port.to_be_bytes());
        out[12] = self.protocol.number();
        out
    }

    /// The 64-bit fingerprint of the canonical [`encode`](FiveTuple::encode)
    /// bytes — the **one** per-packet tuple hash of the hot path: RSS shard
    /// steering ([`crate::shard_of`]), the outgoing (per-5-tuple) packet
    /// log, and the heavy-hitter counting sketch all consume this same
    /// value, so a burst derives it once per packet instead of re-encoding
    /// at every consumer.
    #[inline]
    pub fn tuple_fingerprint(&self) -> u64 {
        vif_sketch::hash::fingerprint(&self.encode())
    }

    /// The 64-bit fingerprint of the big-endian source address — the
    /// incoming (per-source-IP) packet log's key, derived once per packet
    /// alongside [`tuple_fingerprint`](FiveTuple::tuple_fingerprint).
    #[inline]
    pub fn src_ip_fingerprint(&self) -> u64 {
        vif_sketch::hash::fingerprint(&self.src_ip.to_be_bytes())
    }

    /// The reverse direction of this flow.
    pub fn reversed(&self) -> FiveTuple {
        FiveTuple {
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            src_port: self.dst_port,
            dst_port: self.src_port,
            protocol: self.protocol,
        }
    }
}

impl fmt::Display for FiveTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.src_ip.to_be_bytes();
        let d = self.dst_ip.to_be_bytes();
        write!(
            f,
            "{}.{}.{}.{}:{} -> {}.{}.{}.{}:{} {}",
            s[0],
            s[1],
            s[2],
            s[3],
            self.src_port,
            d[0],
            d[1],
            d[2],
            d[3],
            self.dst_port,
            self.protocol
        )
    }
}

/// A lightweight packet: flow id, wire size, arrival time.
///
/// The data plane never inspects payloads (VIF filters on headers only), so
/// packets carry no payload bytes: this is the ⟨5-tuple, size⟩ header the
/// near-zero-copy design passes into the enclave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Flow identifier.
    pub tuple: FiveTuple,
    /// Ethernet frame size in bytes (64..=1518 typical).
    pub wire_size: u16,
    /// Arrival timestamp at the filter's NIC, simulated nanoseconds.
    pub arrival_ns: u64,
    /// Monotonically increasing packet id (generation order).
    pub id: u64,
}

impl Packet {
    /// Creates a packet.
    pub fn new(tuple: FiveTuple, wire_size: u16, arrival_ns: u64, id: u64) -> Self {
        Packet {
            tuple,
            wire_size,
            arrival_ns,
            id,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple() -> FiveTuple {
        FiveTuple::new(0xC0000201, 0xCB007109, 1234, 80, Protocol::Tcp)
    }

    #[test]
    fn protocol_numbers_roundtrip() {
        for n in 0u8..=255 {
            assert_eq!(Protocol::from(n).number(), n);
        }
    }

    #[test]
    fn encode_is_13_bytes_and_injective_on_fields() {
        let base = tuple();
        let mut variants = vec![base];
        let mut v = base;
        v.src_ip ^= 1;
        variants.push(v);
        let mut v = base;
        v.dst_ip ^= 1;
        variants.push(v);
        let mut v = base;
        v.src_port ^= 1;
        variants.push(v);
        let mut v = base;
        v.dst_port ^= 1;
        variants.push(v);
        let mut v = base;
        v.protocol = Protocol::Udp;
        variants.push(v);
        let encodings: Vec<[u8; 13]> = variants.iter().map(|t| t.encode()).collect();
        for i in 0..encodings.len() {
            for j in i + 1..encodings.len() {
                assert_ne!(encodings[i], encodings[j], "variants {i} and {j} collide");
            }
        }
    }

    #[test]
    fn reversed_twice_is_identity() {
        let t = tuple();
        assert_eq!(t.reversed().reversed(), t);
        assert_eq!(t.reversed().src_port, 80);
    }

    #[test]
    fn from_socket_addrs() {
        let t = FiveTuple::from_socket_addrs(
            "10.0.0.1:5555".parse().unwrap(),
            "10.0.0.2:53".parse().unwrap(),
            Protocol::Udp,
        );
        assert_eq!(t.src_ip, u32::from_be_bytes([10, 0, 0, 1]));
        assert_eq!(t.dst_port, 53);
    }

    #[test]
    fn display_formats() {
        let t = FiveTuple::new(
            u32::from_be_bytes([192, 0, 2, 1]),
            u32::from_be_bytes([203, 0, 113, 9]),
            1234,
            80,
            Protocol::Tcp,
        );
        assert_eq!(t.to_string(), "192.0.2.1:1234 -> 203.0.113.9:80 tcp");
    }
}
