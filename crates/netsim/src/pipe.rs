//! Dedicated duplex channels ("pipes") between a client and a service.
//!
//! Pipes model the paper's *dedicated channel between the Drivolution
//! bootloader and Server* (§3.2): a long-lived connection on which the
//! server can immediately push "new driver available" notifications, and
//! whose closure acts as a failure detector for the license-server use case
//! (§5.4.2).

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use crate::error::NetError;
use crate::Addr;

/// One end of a duplex byte-message channel.
///
/// Either side may send and receive. Dropping or [`Pipe::close`]-ing one end
/// makes the peer observe [`NetError::Closed`] once its queue drains.
pub struct Pipe {
    peer: Addr,
    tx: Sender<Bytes>,
    /// `mpsc::Receiver` is not `Sync`; the mutex makes the pipe end
    /// shareable like the sending half.
    rx: Mutex<Receiver<Bytes>>,
    open: Arc<AtomicBool>,
}

impl fmt::Debug for Pipe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pipe")
            .field("peer", &self.peer)
            .field("open", &self.is_open())
            .finish()
    }
}

impl Pipe {
    /// Creates a connected pair of pipe ends. `client_addr` and
    /// `server_addr` are informational, exposed via [`Pipe::peer`].
    pub fn pair(client_addr: Addr, server_addr: Addr) -> (Pipe, Pipe) {
        let (tx_a, rx_b) = channel();
        let (tx_b, rx_a) = channel();
        let open = Arc::new(AtomicBool::new(true));
        let client = Pipe {
            peer: server_addr,
            tx: tx_a,
            rx: Mutex::new(rx_a),
            open: open.clone(),
        };
        let server = Pipe {
            peer: client_addr,
            tx: tx_b,
            rx: Mutex::new(rx_b),
            open,
        };
        (client, server)
    }

    /// Address of the remote end.
    pub fn peer(&self) -> &Addr {
        &self.peer
    }

    /// Returns `true` while neither end has closed the pipe.
    pub fn is_open(&self) -> bool {
        self.open.load(Ordering::SeqCst)
    }

    /// Sends one message to the peer.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Closed`] if either end closed the pipe.
    pub fn send(&self, msg: Bytes) -> Result<(), NetError> {
        if !self.is_open() {
            return Err(NetError::Closed(format!("pipe to {}", self.peer)));
        }
        self.tx
            .send(msg)
            .map_err(|_| NetError::Closed(format!("pipe to {}", self.peer)))
    }

    /// Receives the next message without blocking.
    ///
    /// Returns `Ok(None)` when no message is currently queued.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Closed`] once the pipe is closed *and* drained.
    pub fn try_recv(&self) -> Result<Option<Bytes>, NetError> {
        match self.rx.lock().try_recv() {
            Ok(m) => Ok(Some(m)),
            Err(TryRecvError::Empty) => {
                if self.is_open() {
                    Ok(None)
                } else {
                    Err(NetError::Closed(format!("pipe to {}", self.peer)))
                }
            }
            Err(TryRecvError::Disconnected) => {
                Err(NetError::Closed(format!("pipe to {}", self.peer)))
            }
        }
    }

    /// Closes both directions. Idempotent; queued messages remain readable
    /// by the peer until drained.
    pub fn close(&self) {
        self.open.store(false, Ordering::SeqCst);
    }
}

impl Drop for Pipe {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs() -> (Addr, Addr) {
        (Addr::new("client", 1), Addr::new("server", 2))
    }

    #[test]
    fn duplex_send_recv() {
        let (c, s) = Pipe::pair(addrs().0, addrs().1);
        c.send(Bytes::from_static(b"ping")).unwrap();
        assert_eq!(s.try_recv().unwrap().unwrap(), Bytes::from_static(b"ping"));
        s.send(Bytes::from_static(b"pong")).unwrap();
        assert_eq!(c.try_recv().unwrap().unwrap(), Bytes::from_static(b"pong"));
    }

    #[test]
    fn empty_try_recv_returns_none() {
        let (c, _s) = Pipe::pair(addrs().0, addrs().1);
        assert_eq!(c.try_recv().unwrap(), None);
    }

    #[test]
    fn close_is_visible_to_peer() {
        let (c, s) = Pipe::pair(addrs().0, addrs().1);
        c.close();
        assert!(!s.is_open());
        assert!(s.send(Bytes::new()).is_err());
        assert!(matches!(s.try_recv(), Err(NetError::Closed(_))));
    }

    #[test]
    fn queued_messages_survive_close_until_drained() {
        let (c, s) = Pipe::pair(addrs().0, addrs().1);
        c.send(Bytes::from_static(b"last words")).unwrap();
        c.close();
        // The already-queued message is still deliverable.
        assert_eq!(
            s.rx.lock().try_recv().unwrap(),
            Bytes::from_static(b"last words")
        );
    }

    #[test]
    fn drop_closes() {
        let (c, s) = Pipe::pair(addrs().0, addrs().1);
        drop(c);
        assert!(!s.is_open());
    }
}
