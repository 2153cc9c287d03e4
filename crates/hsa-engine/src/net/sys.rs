//! Raw readiness-multiplexing syscalls for the reactor: a hand-rolled
//! `poll(2)` wrapper with a Linux `epoll(7)` fast path, declared via
//! `extern "C"` against libc symbols the process already links — no new
//! crates. This is the only module in the crate allowed to use `unsafe`;
//! everything it exports is a safe, owned [`Poller`].
//!
//! The two backends expose one level-triggered surface: register an fd
//! with a `u64` token and the interest set, [`Poller::wait`] fills a
//! caller-owned event buffer. Level-triggered semantics keep the
//! connection state machines simple — a socket that still has buffered
//! bytes or queued output shows up again on the next wait.
#![allow(unsafe_code)]

use std::io;
use std::os::fd::RawFd;

pub const POLLIN: i16 = 0x001;
pub const POLLOUT: i16 = 0x004;
pub const POLLERR: i16 = 0x008;
pub const POLLHUP: i16 = 0x010;

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: i32) -> i32;
    fn close(fd: i32) -> i32;
}

#[cfg(target_os = "linux")]
mod epoll_sys {
    pub const EPOLL_CLOEXEC: i32 = 0x80000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x1;
    pub const EPOLLOUT: u32 = 0x4;
    pub const EPOLLERR: u32 = 0x8;
    pub const EPOLLHUP: u32 = 0x10;

    /// `struct epoll_event`. The kernel ABI packs this on x86-64 (the
    /// `data` field sits at offset 4); other architectures use natural
    /// alignment. Field reads must copy out by value.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    }
}

/// One readiness report from [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// The fd has bytes to read (or a pending accept / EOF).
    pub readable: bool,
    /// The fd can take more output.
    pub writable: bool,
    /// The peer hung up or the fd errored — drain reads, then close.
    pub hangup: bool,
}

/// Interest registration shared by both backends.
#[derive(Clone, Copy)]
struct Interest {
    fd: RawFd,
    token: u64,
    readable: bool,
    writable: bool,
}

enum Backend {
    #[cfg(target_os = "linux")]
    Epoll {
        epfd: RawFd,
        buf: Vec<epoll_sys::EpollEvent>,
        registered: usize,
    },
    Poll {
        interests: Vec<Interest>,
        fds: Vec<PollFd>,
    },
}

/// A level-triggered readiness multiplexer: `epoll(7)` on Linux, the
/// portable `poll(2)` rebuild-the-array fallback elsewhere (and on Linux
/// if `epoll_create1` fails).
pub struct Poller {
    backend: Backend,
}

impl Poller {
    /// A new empty poller.
    pub fn new() -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        {
            let epfd = unsafe { epoll_sys::epoll_create1(epoll_sys::EPOLL_CLOEXEC) };
            if epfd >= 0 {
                return Ok(Poller {
                    backend: Backend::Epoll {
                        epfd,
                        buf: vec![epoll_sys::EpollEvent { events: 0, data: 0 }; 64],
                        registered: 0,
                    },
                });
            }
        }
        Ok(Poller {
            backend: Backend::Poll {
                interests: Vec::new(),
                fds: Vec::new(),
            },
        })
    }

    /// Starts watching `fd` under `token` for the given interest set.
    pub fn register(
        &mut self,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        let interest = Interest {
            fd,
            token,
            readable,
            writable,
        };
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll {
                epfd, registered, ..
            } => {
                epoll_ctl(*epfd, epoll_sys::EPOLL_CTL_ADD, interest)?;
                *registered += 1;
                Ok(())
            }
            Backend::Poll { interests, .. } => {
                debug_assert!(interests.iter().all(|i| i.fd != fd));
                interests.push(interest);
                Ok(())
            }
        }
    }

    /// Updates the interest set of an already-registered fd.
    pub fn modify(
        &mut self,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        let interest = Interest {
            fd,
            token,
            readable,
            writable,
        };
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd, .. } => epoll_ctl(*epfd, epoll_sys::EPOLL_CTL_MOD, interest),
            Backend::Poll { interests, .. } => {
                let slot = interests
                    .iter_mut()
                    .find(|i| i.fd == fd)
                    .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
                *slot = interest;
                Ok(())
            }
        }
    }

    /// Stops watching `fd`. The caller still owns (and closes) the fd.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll {
                epfd, registered, ..
            } => {
                let interest = Interest {
                    fd,
                    token: 0,
                    readable: false,
                    writable: false,
                };
                epoll_ctl(*epfd, epoll_sys::EPOLL_CTL_DEL, interest)?;
                *registered = registered.saturating_sub(1);
                Ok(())
            }
            Backend::Poll { interests, .. } => {
                interests.retain(|i| i.fd != fd);
                Ok(())
            }
        }
    }

    /// Blocks until at least one registered fd is ready (or the timeout
    /// lapses), appending reports into `events` (cleared first).
    /// `timeout_ms: None` waits indefinitely. Returns the report count;
    /// `0` means timeout. EINTR retries internally.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: Option<i32>) -> io::Result<usize> {
        events.clear();
        let timeout = timeout_ms.unwrap_or(-1);
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll {
                epfd,
                buf,
                registered,
            } => {
                if buf.len() < (*registered).max(1) {
                    buf.resize(
                        (*registered).next_power_of_two(),
                        epoll_sys::EpollEvent { events: 0, data: 0 },
                    );
                }
                let n = loop {
                    let rc = unsafe {
                        epoll_sys::epoll_wait(*epfd, buf.as_mut_ptr(), buf.len() as i32, timeout)
                    };
                    if rc >= 0 {
                        break rc as usize;
                    }
                    let err = io::Error::last_os_error();
                    if err.kind() != io::ErrorKind::Interrupted {
                        return Err(err);
                    }
                };
                for ev in &buf[..n] {
                    // Copy packed fields out by value before touching them.
                    let bits = { ev.events };
                    let token = { ev.data };
                    events.push(Event {
                        token,
                        readable: bits & epoll_sys::EPOLLIN != 0,
                        writable: bits & epoll_sys::EPOLLOUT != 0,
                        hangup: bits & (epoll_sys::EPOLLERR | epoll_sys::EPOLLHUP) != 0,
                    });
                }
                Ok(n)
            }
            Backend::Poll { interests, fds } => {
                fds.clear();
                for i in interests.iter() {
                    let mut mask = 0i16;
                    if i.readable {
                        mask |= POLLIN;
                    }
                    if i.writable {
                        mask |= POLLOUT;
                    }
                    fds.push(PollFd {
                        fd: i.fd,
                        events: mask,
                        revents: 0,
                    });
                }
                if fds.is_empty() {
                    // Nothing registered: poll(2) with no fds is a sleep.
                    if timeout < 0 {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidInput,
                            "infinite wait with no fds registered",
                        ));
                    }
                }
                let n = loop {
                    let rc =
                        unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, timeout) };
                    if rc >= 0 {
                        break rc as usize;
                    }
                    let err = io::Error::last_os_error();
                    if err.kind() != io::ErrorKind::Interrupted {
                        return Err(err);
                    }
                };
                if n > 0 {
                    for (pfd, i) in fds.iter().zip(interests.iter()) {
                        let got = pfd.revents;
                        if got == 0 {
                            continue;
                        }
                        events.push(Event {
                            token: i.token,
                            readable: got & POLLIN != 0,
                            writable: got & POLLOUT != 0,
                            hangup: got & (POLLERR | POLLHUP) != 0,
                        });
                    }
                }
                Ok(events.len())
            }
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Backend::Epoll { epfd, .. } = &self.backend {
            unsafe {
                close(*epfd);
            }
        }
    }
}

#[cfg(target_os = "linux")]
fn epoll_ctl(epfd: RawFd, op: i32, interest: Interest) -> io::Result<()> {
    let mut bits = 0u32;
    if interest.readable {
        bits |= epoll_sys::EPOLLIN;
    }
    if interest.writable {
        bits |= epoll_sys::EPOLLOUT;
    }
    let mut ev = epoll_sys::EpollEvent {
        events: bits,
        data: interest.token,
    };
    let rc = unsafe { epoll_sys::epoll_ctl(epfd, op, interest.fd, &mut ev) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    /// The backend `Poller::new` picks (epoll on Linux), then the portable
    /// `poll(2)` one, which is the only backend on other Unixes.
    fn pollers() -> [Poller; 2] {
        let poll = Poller {
            backend: Backend::Poll {
                interests: Vec::new(),
                fds: Vec::new(),
            },
        };
        [Poller::new().unwrap(), poll]
    }

    #[test]
    fn readiness_tracks_pipe_bytes() {
        for mut poller in pollers() {
            let (mut a, mut b) = UnixStream::pair().unwrap();
            b.set_nonblocking(true).unwrap();
            poller.register(b.as_raw_fd(), 7, true, false).unwrap();

            let mut events = Vec::new();
            // Nothing written yet: a short wait times out.
            assert_eq!(poller.wait(&mut events, Some(0)).unwrap(), 0);

            a.write_all(b"x").unwrap();
            assert_eq!(poller.wait(&mut events, Some(1000)).unwrap(), 1);
            assert_eq!(events[0].token, 7);
            assert!(events[0].readable);

            // Level-triggered: unread bytes keep reporting.
            assert_eq!(poller.wait(&mut events, Some(1000)).unwrap(), 1);
            let mut buf = [0u8; 8];
            let _ = b.read(&mut buf).unwrap();
            assert_eq!(poller.wait(&mut events, Some(0)).unwrap(), 0);

            // Write interest on an empty socket buffer reports writable.
            poller.modify(b.as_raw_fd(), 7, true, true).unwrap();
            assert_eq!(poller.wait(&mut events, Some(1000)).unwrap(), 1);
            assert!(events[0].writable);

            poller.deregister(b.as_raw_fd()).unwrap();
            assert_eq!(poller.wait(&mut events, Some(0)).unwrap(), 0);
        }
    }

    #[test]
    fn hangup_reported_on_peer_close() {
        for mut poller in pollers() {
            let (a, b) = UnixStream::pair().unwrap();
            poller.register(b.as_raw_fd(), 1, true, false).unwrap();
            drop(a);
            let mut events = Vec::new();
            assert_eq!(poller.wait(&mut events, Some(1000)).unwrap(), 1);
            // Closed peer: readable EOF and/or hangup, either signal works
            // for the reactor (both funnel into a drain-then-close).
            assert!(events[0].readable || events[0].hangup);
        }
    }
}
