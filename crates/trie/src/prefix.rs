//! Validated IPv4 prefixes.

use std::fmt;
use std::str::FromStr;

/// An IPv4 prefix `addr/len` with the invariant that all host bits are zero.
///
/// # Example
///
/// ```
/// use vif_trie::Ipv4Prefix;
/// let p: Ipv4Prefix = "192.0.2.0/24".parse().unwrap();
/// assert!(p.contains(u32::from_be_bytes([192, 0, 2, 200])));
/// assert!(!p.contains(u32::from_be_bytes([192, 0, 3, 1])));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ipv4Prefix {
    addr: u32,
    len: u8,
}

impl Ipv4Prefix {
    /// Creates a prefix, zeroing host bits.
    ///
    /// # Panics
    ///
    /// Panics if `len > 32`.
    pub fn new(addr: u32, len: u8) -> Self {
        assert!(len <= 32, "prefix length must be at most 32");
        Ipv4Prefix {
            addr: addr & Self::mask(len),
            len,
        }
    }

    /// A host route (`/32`).
    pub fn host(addr: u32) -> Self {
        Ipv4Prefix { addr, len: 32 }
    }

    /// The default route (`0.0.0.0/0`).
    pub fn default_route() -> Self {
        Ipv4Prefix { addr: 0, len: 0 }
    }

    /// The network address (host bits zero).
    pub fn addr(&self) -> u32 {
        self.addr
    }

    /// The prefix length in bits.
    #[allow(clippy::len_without_is_empty)] // a /0 prefix is not "empty"
    pub fn len(&self) -> u8 {
        self.len
    }

    /// The netmask for a given prefix length.
    pub fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len as u32)
        }
    }

    /// True if `ip` falls within this prefix.
    #[inline]
    pub fn contains(&self, ip: u32) -> bool {
        (ip & Self::mask(self.len)) == self.addr
    }

    /// True if `other` is entirely contained in `self`.
    pub fn covers(&self, other: &Ipv4Prefix) -> bool {
        self.len <= other.len && self.contains(other.addr)
    }
}

impl fmt::Display for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.addr.to_be_bytes();
        write!(f, "{}.{}.{}.{}/{}", b[0], b[1], b[2], b[3], self.len)
    }
}

/// Errors from parsing an [`Ipv4Prefix`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefixParseError {
    /// Not of the form `a.b.c.d/len`.
    Syntax,
    /// An address octet was out of range or malformed.
    BadOctet,
    /// The prefix length exceeded 32 or was malformed.
    BadLength,
}

impl fmt::Display for PrefixParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrefixParseError::Syntax => write!(f, "expected `a.b.c.d/len`"),
            PrefixParseError::BadOctet => write!(f, "invalid address octet"),
            PrefixParseError::BadLength => write!(f, "invalid prefix length"),
        }
    }
}

impl std::error::Error for PrefixParseError {}

impl FromStr for Ipv4Prefix {
    type Err = PrefixParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr_part, len_part) = s.split_once('/').ok_or(PrefixParseError::Syntax)?;
        let len: u8 = len_part.parse().map_err(|_| PrefixParseError::BadLength)?;
        if len > 32 {
            return Err(PrefixParseError::BadLength);
        }
        let mut octets = [0u8; 4];
        let mut it = addr_part.split('.');
        for slot in octets.iter_mut() {
            let o = it.next().ok_or(PrefixParseError::Syntax)?;
            *slot = o.parse().map_err(|_| PrefixParseError::BadOctet)?;
        }
        if it.next().is_some() {
            return Err(PrefixParseError::Syntax);
        }
        Ok(Ipv4Prefix::new(u32::from_be_bytes(octets), len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_roundtrip() {
        for s in ["0.0.0.0/0", "10.0.0.0/8", "192.0.2.0/24", "203.0.113.7/32"] {
            let p: Ipv4Prefix = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
    }

    #[test]
    fn host_bits_zeroed() {
        let p = Ipv4Prefix::new(u32::from_be_bytes([10, 1, 2, 3]), 8);
        assert_eq!(p.to_string(), "10.0.0.0/8");
        let q: Ipv4Prefix = "10.9.9.9/16".parse().unwrap();
        assert_eq!(q.to_string(), "10.9.0.0/16");
    }

    #[test]
    fn containment() {
        let p: Ipv4Prefix = "172.16.0.0/12".parse().unwrap();
        assert!(p.contains(u32::from_be_bytes([172, 16, 0, 1])));
        assert!(p.contains(u32::from_be_bytes([172, 31, 255, 255])));
        assert!(!p.contains(u32::from_be_bytes([172, 32, 0, 0])));
        assert!(Ipv4Prefix::default_route().contains(0));
        assert!(Ipv4Prefix::default_route().contains(u32::MAX));
    }

    #[test]
    fn covers() {
        let wide: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
        let narrow: Ipv4Prefix = "10.1.0.0/16".parse().unwrap();
        assert!(wide.covers(&narrow));
        assert!(!narrow.covers(&wide));
        assert!(wide.covers(&wide));
        let other: Ipv4Prefix = "11.0.0.0/8".parse().unwrap();
        assert!(!wide.covers(&other));
    }

    #[test]
    fn parse_errors() {
        assert_eq!(
            "10.0.0.0".parse::<Ipv4Prefix>(),
            Err(PrefixParseError::Syntax)
        );
        assert_eq!(
            "10.0.0/8".parse::<Ipv4Prefix>(),
            Err(PrefixParseError::Syntax)
        );
        assert_eq!(
            "10.0.0.0.0/8".parse::<Ipv4Prefix>(),
            Err(PrefixParseError::Syntax)
        );
        assert_eq!(
            "256.0.0.0/8".parse::<Ipv4Prefix>(),
            Err(PrefixParseError::BadOctet)
        );
        assert_eq!(
            "10.0.0.0/33".parse::<Ipv4Prefix>(),
            Err(PrefixParseError::BadLength)
        );
        assert_eq!(
            "10.0.0.0/x".parse::<Ipv4Prefix>(),
            Err(PrefixParseError::BadLength)
        );
    }

    #[test]
    fn masks() {
        assert_eq!(Ipv4Prefix::mask(0), 0);
        assert_eq!(Ipv4Prefix::mask(8), 0xff00_0000);
        assert_eq!(Ipv4Prefix::mask(32), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "at most 32")]
    fn new_rejects_long() {
        Ipv4Prefix::new(0, 33);
    }
}
