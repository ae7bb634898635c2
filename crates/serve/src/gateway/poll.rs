//! The shard's one blocking call: `poll(2)` over its sockets and a wake
//! descriptor, plus the [`Waker`] other threads write to end it.
//!
//! `poll` is declared against the libc std already links, with the Linux
//! types and flag values (`nfds_t` is `c_ulong` there, `unsigned int` on
//! macOS and the BSDs), so the gateway, and with it this crate, builds
//! for Linux only.

#[cfg(not(target_os = "linux"))]
compile_error!("the gateway's poll(2) declaration is Linux-only");

use std::ffi::{c_int, c_short, c_ulong};
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Instant;

pub(super) const POLLIN: c_short = 0x001;
pub(super) const POLLOUT: c_short = 0x004;
/// Error, hang-up and invalid-descriptor bits: `poll` reports them
/// whatever was asked for, and a socket showing one is closed.
pub(super) const POLLERR_HUP_NVAL: c_short = 0x008 | 0x010 | 0x020;

/// One `struct pollfd`.
#[repr(C)]
pub(super) struct PollFd {
    fd: c_int,
    events: c_short,
    /// What the last [`wait`] reported for `fd`.
    pub(super) revents: c_short,
}

impl PollFd {
    pub(super) fn new(fd: RawFd, events: c_short) -> Self {
        Self {
            fd,
            events,
            revents: 0,
        }
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Blocks until a descriptor in `fds` is ready or `deadline` passes
/// (rounded up to a whole millisecond; `None` waits indefinitely), and
/// fills in every entry's `revents`. A call that fails (`EINTR`) leaves
/// them as they were.
pub(super) fn wait(fds: &mut [PollFd], deadline: Option<Instant>) {
    let timeout = deadline.map_or(-1, |deadline| {
        let left = deadline.saturating_duration_since(Instant::now());
        c_int::try_from(left.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
    });
    // SAFETY: `fds` is an exclusively borrowed, initialised array of
    // `fds.len()` `PollFd`s, laid out as `struct pollfd` (`repr(C)`:
    // int, short, short). The kernel reads the entries and writes only
    // their `revents`, and keeps no pointer past the call.
    unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout) };
}

/// A shard's wake descriptor: a nonblocking socket pair. The shard polls
/// the read half; any thread calls [`Waker::wake`] to end that poll.
/// Clones share the pair, and both halves live while any clone does, so
/// a wake never writes into a closed socket.
#[derive(Debug, Clone)]
pub(crate) struct Waker(Arc<(UnixStream, UnixStream)>);

impl Waker {
    pub(super) fn new() -> io::Result<Self> {
        let (read, write) = UnixStream::pair()?;
        read.set_nonblocking(true)?;
        write.set_nonblocking(true)?;
        Ok(Self(Arc::new((read, write))))
    }

    /// Ends the shard's current or next `poll`. A full descriptor
    /// already holds a pending wake, so a write it refuses is dropped;
    /// this never blocks.
    pub(crate) fn wake(&self) {
        let _ = (&self.0 .1).write(&[1]);
    }

    /// Consumes every pending wake: one read, repeated only while a read
    /// fills the buffer.
    pub(super) fn drain(&self) {
        let mut buf = [0_u8; 64];
        while matches!((&self.0 .0).read(&mut buf), Ok(n) if n == buf.len()) {}
    }

    /// The read half, for the shard's poll set.
    pub(super) fn fd(&self) -> RawFd {
        self.0 .0.as_raw_fd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Wakes into a full descriptor are dropped without blocking, one
    /// drain empties it, and `poll` stops reporting it.
    #[test]
    fn full_wake_descriptor_never_blocks_and_drains() {
        let waker = Waker::new().expect("socket pair");
        // Each one-byte write costs the socket far more than a byte of
        // its send buffer, so this many fill it many times over.
        for _ in 0..10_000 {
            waker.wake();
        }
        let mut fds = [PollFd::new(waker.fd(), POLLIN)];
        wait(&mut fds, Some(Instant::now()));
        assert_eq!(fds[0].revents, POLLIN);
        waker.drain();
        let mut fds = [PollFd::new(waker.fd(), POLLIN)];
        wait(&mut fds, Some(Instant::now()));
        assert_eq!(fds[0].revents, 0);
    }
}
