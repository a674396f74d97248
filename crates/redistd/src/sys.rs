//! Raw `epoll(7)` / `eventfd(2)` shims for the serving front-end.
//!
//! The crate is std-only by policy, but libc is already linked by std, so
//! — exactly like the `signal(2)` shim in the `redistd` binary — the
//! handful of symbols the event loop needs are declared directly and
//! wrapped in safe types here. `epoll` is a Linux API, which is why the
//! crate builds only on Linux (see the crate root).

use std::io;
use std::os::unix::io::RawFd;

/// Readable readiness.
pub const EPOLLIN: u32 = 0x001;
/// Writable readiness.
pub const EPOLLOUT: u32 = 0x004;
/// Peer shut down its writing half. (`EPOLLERR`/`EPOLLHUP` are always
/// reported without being requested; the event loop treats any bit it
/// did not ask for as "go read the socket and observe the error".)
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
#[cfg(test)]
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0x8_0000;
const EFD_CLOEXEC: i32 = 0x8_0000;
const EFD_NONBLOCK: i32 = 0x800;
const EINTR: i32 = 4;
const EAGAIN: i32 = 11;

/// `struct epoll_event`. On x86-64 the kernel ABI packs it (no padding
/// between `events` and `data`); other architectures use natural layout.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Readiness mask (`EPOLL*` bits).
    pub events: u32,
    /// Caller-owned token returned verbatim with the event.
    pub data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn close(fd: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn listen(sockfd: i32, backlog: i32) -> i32;
}

fn check(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An epoll instance. Closed on drop; fds it watches are deregistered by
/// the kernel automatically when *they* close.
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: plain syscall, no pointers.
        let fd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        check(unsafe { epoll_ctl(self.fd, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Registers `fd` with the given interest mask and token.
    pub fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Changes the interest mask (and token) of a registered fd.
    pub fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Deregisters a fd. The event loop never needs this — closing the fd
    /// deregisters it — so it exists only for the tests below.
    #[cfg(test)]
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        // Pre-2.6.9 kernels demanded a non-null event even for DEL; every
        // kernel this runs on ignores it.
        let mut ev = EpollEvent { events: 0, data: 0 };
        // SAFETY: as in `ctl`.
        check(unsafe { epoll_ctl(self.fd, EPOLL_CTL_DEL, fd, &mut ev) })?;
        Ok(())
    }

    /// Blocks up to `timeout_ms` (-1 = forever) for readiness, filling
    /// `events` and returning how many fired. `EINTR` is retried.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: `events` is a valid, writable slice for the call.
            let n = unsafe {
                epoll_wait(
                    self.fd,
                    events.as_mut_ptr(),
                    events.len() as i32,
                    timeout_ms,
                )
            };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.raw_os_error() == Some(EINTR) {
                continue;
            }
            return Err(err);
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: fd owned exclusively by this wrapper.
        unsafe { close(self.fd) };
    }
}

/// A nonblocking `eventfd` used to wake an epoll loop from other threads
/// (worker completions, accept handoff, shutdown).
pub struct WakeFd {
    fd: RawFd,
}

impl WakeFd {
    /// Creates a nonblocking, close-on-exec eventfd with counter 0.
    pub fn new() -> io::Result<WakeFd> {
        // SAFETY: plain syscall, no pointers.
        let fd = check(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(WakeFd { fd })
    }

    /// The fd to register with [`Epoll::add`] under `EPOLLIN`.
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Makes the fd readable, waking any epoll waiting on it. A full
    /// counter (`EAGAIN`) means the loop is already hopelessly behind on
    /// wakeups and still readable, so that error is ignored.
    pub fn wake(&self) {
        let one: u64 = 1;
        let buf = one.to_ne_bytes();
        // SAFETY: valid 8-byte buffer for the call.
        unsafe { write(self.fd, buf.as_ptr(), buf.len()) };
    }

    /// Drains the counter so the next `wake` triggers a fresh readiness
    /// edge (and level-triggered polls stop re-firing).
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        loop {
            // SAFETY: valid 8-byte buffer for the call.
            let n = unsafe { read(self.fd, buf.as_mut_ptr(), buf.len()) };
            if n >= 0 {
                // eventfd reads atomically reset the counter; one read is
                // enough, but loop defensively until EAGAIN.
                if n == 0 {
                    return;
                }
                continue;
            }
            let err = io::Error::last_os_error();
            if err.raw_os_error() == Some(EINTR) {
                continue;
            }
            debug_assert!(
                err.raw_os_error() == Some(EAGAIN),
                "eventfd drain failed: {err}"
            );
            return;
        }
    }
}

impl Drop for WakeFd {
    fn drop(&mut self) {
        // SAFETY: fd owned exclusively by this wrapper.
        unsafe { close(self.fd) };
    }
}

// SAFETY: the wrapped fds are plain integers; every syscall here is
// thread-safe per POSIX.
unsafe impl Send for WakeFd {}
unsafe impl Sync for WakeFd {}
unsafe impl Send for Epoll {}
unsafe impl Sync for Epoll {}

/// Best-effort bump of a listening socket's backlog beyond the
/// `TcpListener::bind` default of 128: `listen(2)` may be re-invoked on a
/// listening socket to resize its queue. At 1024 simultaneous connects a
/// short backlog shows up as refused connections the load generator then
/// has to retry around.
pub fn set_backlog(fd: RawFd, backlog: i32) -> io::Result<()> {
    // SAFETY: plain syscall on a caller-owned fd.
    check(unsafe { listen(fd, backlog) })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wakefd_wakes_epoll_and_drains() {
        let ep = Epoll::new().unwrap();
        let wake = WakeFd::new().unwrap();
        ep.add(wake.fd(), EPOLLIN, 7).unwrap();

        // Nothing pending: a zero-timeout wait returns no events.
        let mut events = [EpollEvent { events: 0, data: 0 }; 4];
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);

        // Wakes from another thread are observed with the right token.
        std::thread::scope(|s| {
            s.spawn(|| wake.wake());
        });
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let (ev, data) = (events[0].events, events[0].data);
        assert_ne!(ev & EPOLLIN, 0);
        assert_eq!(data, 7);

        // Level-triggered: still readable until drained.
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 1);
        wake.drain();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);

        // Coalescing: many wakes, one drain.
        wake.wake();
        wake.wake();
        wake.wake();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 1);
        wake.drain();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn epoll_modify_and_delete() {
        let ep = Epoll::new().unwrap();
        let wake = WakeFd::new().unwrap();
        ep.add(wake.fd(), EPOLLIN, 1).unwrap();
        wake.wake();
        // Mask out EPOLLIN: no events even though the fd is readable.
        ep.modify(wake.fd(), 0, 1).unwrap();
        let mut events = [EpollEvent { events: 0, data: 0 }; 4];
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
        // Re-arm with a new token.
        ep.modify(wake.fd(), EPOLLIN, 2).unwrap();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 1);
        let data = events[0].data;
        assert_eq!(data, 2);
        ep.delete(wake.fd()).unwrap();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
    }
}
