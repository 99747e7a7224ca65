//! The cluster ("Sequoia") wire protocol: a versioned frame around the
//! database protocol.
//!
//! "Sequoia uses its own wire protocol between drivers and controllers.
//! Compatibility checking is done at connection time to ensure that
//! protocol versions will work together. Drivers are backward compatible
//! with older controllers." (§5.3.1)

use bytes::Bytes;

use netsim::codec::{encode, wire_frame, CodecError, Wire};

/// First cluster protocol version.
pub const CLUSTER_V1: u16 = 1;
/// Second cluster protocol version (what upgraded drivers speak).
pub const CLUSTER_V2: u16 = 2;

wire_frame! {
    /// A version-prefixed frame wrapping a database-protocol message.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct ClusterFrame {
        /// Cluster protocol version the driver speaks.
        pub version: u16,
        /// Encoded inner message (`minidb::wire::ClientMsg`).
        pub inner: Bytes,
    }
}

impl ClusterFrame {
    /// Wraps an inner message.
    pub fn new(version: u16, inner: Bytes) -> Self {
        ClusterFrame { version, inner }
    }

    /// Serializes the frame.
    pub fn encode(&self) -> Bytes {
        encode(self)
    }

    /// Deserializes a frame.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation.
    pub fn decode(mut buf: Bytes) -> Result<Self, CodecError> {
        Self::get(&mut buf, "cluster frame")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let f = ClusterFrame::new(CLUSTER_V2, Bytes::from_static(b"inner-bytes"));
        assert_eq!(ClusterFrame::decode(f.encode()).unwrap(), f);
    }

    #[test]
    fn truncated_frame_rejected() {
        let f = ClusterFrame::new(CLUSTER_V1, Bytes::from_static(b"xyz"));
        let e = f.encode();
        assert!(ClusterFrame::decode(e.slice(0..e.len() - 1)).is_err());
        assert!(ClusterFrame::decode(Bytes::from_static(&[1])).is_err());
    }
}
