//! Sockets and line framing, shared by the serve daemon
//! ([`crate::server`]), the shard router ([`crate::router`]) and the
//! `--oneshot` path ([`Engine::answer_stream`](crate::Engine::answer_stream)).
//! This is the only module that binds raw syscalls or scans a read buffer
//! for newlines:
//!
//! * the `epoll(7)`, `eventfd(2)`, `signal(2)` and `kill(2)` bindings —
//!   raw `extern "C"` declarations, so the crate stays dependency-free,
//!   behind the thin safe wrappers [`Epoll`] and [`WakeFd`];
//! * [`frame`] — the one line framer: the line cap, CRLF trim, empty-line
//!   skip, and the `oversized` answer with resync at the next newline;
//! * [`LineConn`] — one non-blocking connection: a read buffer framed as
//!   bytes arrive, a write buffer drained as the socket accepts bytes, the
//!   half-close state, and the epoll interest kept in sync with both;
//! * [`accept`] — accept every pending connection and register it.

use crate::protocol::{err_line, ErrorKind, WireError, MAX_LINE_BYTES};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;
const EFD_CLOEXEC: i32 = 0o2000000;
const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    fn kill(pid: i32, sig: i32) -> i32;
}

/// How long shutdown (and a half-closed connection) may wait for admitted
/// work to finish and flush before giving up on the socket.
pub(crate) const FLUSH_WINDOW: Duration = Duration::from_secs(60);

/// Bytes asked of one `read(2)`; a read buffer never holds more than the
/// line cap plus this.
pub(crate) const READ_CHUNK: usize = 16 * 1024;

/// A write buffer whose flushed prefix grows past this is compacted, so a
/// slow reader cannot pin the whole history of its responses in memory.
const COMPACT_AT: usize = 64 * 1024;

/// Process-wide "a termination signal arrived" flag.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    // The only async-signal-safe thing worth doing: set a flag the event
    // loops poll.
    SIGNALLED.store(true, Ordering::SeqCst);
}

/// Route SIGTERM and SIGINT (ctrl-c) into a graceful drain instead of the
/// default immediate kill. Called once by the `serve` binary; safe to
/// call more than once.
pub fn install_signal_handlers() {
    // SAFETY: `on_signal` only stores to an atomic, which is
    // async-signal-safe, and has the `void (*)(int)` ABI `signal` expects.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

/// Whether a termination signal has arrived (see
/// [`install_signal_handlers`]). The daemon's and the router's event loops
/// both poll this.
pub(crate) fn signalled() -> bool {
    SIGNALLED.load(Ordering::Relaxed)
}

/// Ask process `pid` to drain and exit (SIGTERM).
pub(crate) fn terminate(pid: u32) {
    // SAFETY: `kill` takes plain integers; Linux pids fit in an i32.
    unsafe { kill(pid as i32, SIGTERM) };
}

/// Mirror of `struct epoll_event`; packed on x86-64 (the kernel ABI packs
/// it there), naturally aligned elsewhere. Fields are only ever read by
/// value — never by reference — because of the packing.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy, Default)]
pub(crate) struct EpollEvent {
    events: u32,
    data: u64,
}

impl EpollEvent {
    /// The token the fd was registered under.
    pub fn token(self) -> u64 {
        self.data
    }

    /// The peer hung up or the socket errored: tear the connection down.
    pub fn hangup(self) -> bool {
        self.events & (EPOLLERR | EPOLLHUP) != 0
    }

    pub fn readable(self) -> bool {
        self.events & EPOLLIN != 0
    }

    pub fn writable(self) -> bool {
        self.events & EPOLLOUT != 0
    }
}

/// Owned epoll instance, level-triggered. Deregistration is implicit —
/// closing a watched fd removes it (no fd here is ever duplicated).
pub(crate) struct Epoll {
    fd: RawFd,
}

impl Epoll {
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: no pointers; a negative return is handled below.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` is a live `epoll_event` for the duration of the call;
        // the kernel copies it and keeps no pointer.
        if unsafe { epoll_ctl(self.fd, op, fd, &mut ev) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Watch `fd` for readability under `token`.
    pub fn add(&self, fd: &impl AsRawFd, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd.as_raw_fd(), token, EPOLLIN)
    }

    /// Wait for readiness; `EINTR` (a signal landed) reports as zero
    /// events so the caller re-checks its stop flag.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> usize {
        // SAFETY: the kernel writes at most `events.len()` entries into the
        // exclusively borrowed slice, whose layout mirrors `epoll_event`.
        let n = unsafe {
            epoll_wait(
                self.fd,
                events.as_mut_ptr(),
                events.len() as i32,
                timeout_ms,
            )
        };
        n.max(0) as usize
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: this value owns the fd and closes it exactly once.
        unsafe { close(self.fd) };
    }
}

/// Non-blocking `eventfd` used as a wake channel into an event loop:
/// writers bump the counter, the loop drains it.
pub(crate) struct WakeFd {
    fd: RawFd,
}

impl WakeFd {
    pub fn new() -> io::Result<WakeFd> {
        // SAFETY: no pointers; a negative return is handled below.
        let fd = unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(WakeFd { fd })
    }

    /// Signal the event loop. A full counter (`EAGAIN`) already means
    /// "a wake is pending", so errors are ignorable.
    pub fn wake(&self) {
        let one = 1u64.to_ne_bytes();
        // SAFETY: writes 8 bytes from a live local array.
        unsafe { write(self.fd, one.as_ptr(), one.len()) };
    }

    /// Reset the counter so level-triggered epoll stops reporting it.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        // SAFETY: reads at most 8 bytes into a live local array.
        unsafe { read(self.fd, buf.as_mut_ptr(), buf.len()) };
    }
}

impl AsRawFd for WakeFd {
    fn as_raw_fd(&self) -> RawFd {
        self.fd
    }
}

impl Drop for WakeFd {
    fn drop(&mut self) {
        // SAFETY: this value owns the fd and closes it exactly once.
        unsafe { close(self.fd) };
    }
}

/// The structured answer to a line over [`MAX_LINE_BYTES`] (no id: the
/// line was never parsed).
pub(crate) fn oversized_line() -> String {
    err_line(
        None,
        &WireError::new(
            ErrorKind::Oversized,
            format!("request line exceeds {MAX_LINE_BYTES} bytes"),
        ),
    )
}

/// One item framed out of a read buffer.
pub(crate) enum Line<'a> {
    /// A complete, non-blank line without its newline or trailing `\r`s.
    Text(&'a str),
    /// A line over the cap, to be answered `oversized` once.
    Oversized,
}

/// Frame every complete line in `buf` through `on_line`, then consume it.
///
/// Blank lines are skipped and trailing `\r`s are trimmed. A line longer
/// than `cap` bytes (newline excluded) is reported as [`Line::Oversized`],
/// once: either complete, or as soon as the unfinished remainder outgrows
/// `cap`, in which case `discarding` is set and the rest of that line is
/// dropped until the next newline resyncs the stream. So the sequence of
/// items does not depend on how the bytes were split across calls, and on
/// return `buf` holds at most `cap` bytes — the start of an unfinished
/// line. Pass `usize::MAX` for no cap.
pub(crate) fn frame(
    buf: &mut Vec<u8>,
    discarding: &mut bool,
    cap: usize,
    mut on_line: impl FnMut(Line<'_>),
) {
    let mut start = 0;
    while let Some(len) = buf[start..].iter().position(|&b| b == b'\n') {
        let raw = &buf[start..start + len];
        start += len + 1;
        if std::mem::take(discarding) {
            continue;
        }
        if raw.len() > cap {
            on_line(Line::Oversized);
            continue;
        }
        let text = String::from_utf8_lossy(raw);
        let text = text.trim_end_matches('\r');
        if !text.trim().is_empty() {
            on_line(Line::Text(text));
        }
    }
    buf.drain(..start);
    if *discarding {
        // Still inside an oversized line's tail: none of it is kept.
        buf.clear();
    } else if buf.len() > cap {
        on_line(Line::Oversized);
        buf.clear();
        *discarding = true;
    }
}

/// One non-blocking, epoll-registered connection speaking
/// newline-delimited lines. The owner supplies what a line means; this
/// type owns the bytes: reads framed by [`frame`], buffered writes with
/// partial-write bookkeeping, half-close, and an interest mask that is
/// `EPOLLIN` while the peer may still send and `EPOLLOUT` only while a
/// write backlog exists.
pub(crate) struct LineConn {
    stream: TcpStream,
    token: u64,
    /// Bytes read but not yet framed into lines.
    rbuf: Vec<u8>,
    /// Inside the tail of an oversized line (already answered).
    discarding: bool,
    /// Bytes not yet on the wire; `wstart` marks the written prefix so a
    /// partial write never re-sends bytes.
    wbuf: Vec<u8>,
    wstart: usize,
    /// The peer half-closed, a read failed, or the owner stopped reading.
    read_closed: bool,
    /// When `read_closed` was set, for the flush-window cap.
    closed_at: Option<Instant>,
    /// Event mask currently registered with epoll.
    interest: u32,
}

impl LineConn {
    /// Make `stream` non-blocking (Nagle off) and register it with `epoll`
    /// for reading under `token`.
    pub fn register(stream: TcpStream, token: u64, epoll: &Epoll) -> io::Result<LineConn> {
        let _ = stream.set_nodelay(true);
        stream.set_nonblocking(true)?;
        epoll.add(&stream, token)?;
        Ok(LineConn {
            stream,
            token,
            rbuf: Vec::new(),
            discarding: false,
            wbuf: Vec::new(),
            wstart: 0,
            read_closed: false,
            closed_at: None,
            interest: EPOLLIN,
        })
    }

    pub fn token(&self) -> u64 {
        self.token
    }

    pub fn read_closed(&self) -> bool {
        self.read_closed
    }

    /// Whether unwritten bytes are buffered.
    pub fn has_backlog(&self) -> bool {
        self.wstart < self.wbuf.len()
    }

    /// Whether the peer stopped sending longer than [`FLUSH_WINDOW`] ago.
    pub fn flush_expired(&self, now: Instant) -> bool {
        self.closed_at.is_some_and(|t| now.duration_since(t) > FLUSH_WINDOW)
    }

    /// Read until the socket would block, framing lines (capped at `cap`,
    /// see [`frame`]) through `on_line` after every chunk. EOF or a read
    /// error closes the read side; buffered writes still flush.
    pub fn read_lines(&mut self, cap: usize, epoll: &Epoll, mut on_line: impl FnMut(Line<'_>)) {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => break self.close_reads(),
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    frame(&mut self.rbuf, &mut self.discarding, cap, &mut on_line);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break self.close_reads(),
            }
        }
        self.sync_interest(epoll);
    }

    /// Stop reading for good (shutdown drain); writes still flush.
    pub fn stop_reading(&mut self, epoll: &Epoll) {
        self.close_reads();
        self.sync_interest(epoll);
    }

    fn close_reads(&mut self) {
        self.read_closed = true;
        self.closed_at.get_or_insert_with(Instant::now);
    }

    /// Buffer raw bytes for writing; [`LineConn::flush`] sends them.
    pub fn queue(&mut self, bytes: &[u8]) {
        self.wbuf.extend_from_slice(bytes);
    }

    /// Buffer one line plus its newline for writing.
    pub fn queue_line(&mut self, line: &str) {
        self.queue(line.as_bytes());
        self.wbuf.push(b'\n');
    }

    /// Write the backlog until it drains or the socket would block, then
    /// sync the interest mask. `false` means the connection failed and
    /// the owner should tear it down.
    pub fn flush(&mut self, epoll: &Epoll) -> bool {
        while self.has_backlog() {
            match self.stream.write(&self.wbuf[self.wstart..]) {
                Ok(0) => return false,
                Ok(n) => self.wstart += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if !self.has_backlog() {
            self.wbuf.clear();
            self.wstart = 0;
        } else if self.wstart > COMPACT_AT {
            self.wbuf.drain(..self.wstart);
            self.wstart = 0;
        }
        self.sync_interest(epoll);
        true
    }

    /// Register exactly what the connection can make progress on.
    fn sync_interest(&mut self, epoll: &Epoll) {
        let mut want = 0u32;
        if !self.read_closed {
            want |= EPOLLIN;
        }
        if self.has_backlog() {
            want |= EPOLLOUT;
        }
        if want != self.interest {
            let _ = epoll.ctl(EPOLL_CTL_MOD, self.stream.as_raw_fd(), self.token, want);
            self.interest = want;
        }
    }
}

/// Accept every connection pending on `listener` and register each with
/// `epoll` under the next token from `next_token`, handing it to
/// `on_conn`. A transient accept failure (EMFILE, an aborted handshake)
/// backs off briefly so a persistent one cannot spin the loop hot; the
/// next readiness event retries.
pub(crate) fn accept(
    listener: &TcpListener,
    epoll: &Epoll,
    next_token: &mut u64,
    mut on_conn: impl FnMut(LineConn),
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let token = *next_token;
                *next_token += 1;
                if let Ok(conn) = LineConn::register(stream, token, epoll) {
                    on_conn(conn);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(_) => {
                std::thread::sleep(Duration::from_millis(5));
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Owned form of a framed item, for comparing sequences.
    #[derive(Debug, PartialEq)]
    enum Item {
        Text(String),
        Oversized,
    }

    /// Feed `chunks` one at a time through [`frame`], checking the buffer
    /// bound after every call; returns the framed items.
    fn frame_chunks(chunks: &[&[u8]], cap: usize) -> Vec<Item> {
        let (mut buf, mut discarding, mut out) = (Vec::new(), false, Vec::new());
        for chunk in chunks {
            buf.extend_from_slice(chunk);
            frame(&mut buf, &mut discarding, cap, |l| {
                out.push(match l {
                    Line::Text(t) => Item::Text(t.to_owned()),
                    Line::Oversized => Item::Oversized,
                })
            });
            assert!(buf.len() <= cap, "{} buffered bytes over cap {cap}", buf.len());
        }
        out
    }

    fn text(s: &str) -> Item {
        Item::Text(s.to_owned())
    }

    #[test]
    fn crlf_and_blank_lines() {
        let got = frame_chunks(&[b"a\r\n\n  \r\n\tb\r\r\nc"], 64);
        assert_eq!(got, [text("a"), text("\tb")]);
    }

    #[test]
    fn a_line_split_across_reads_frames_once() {
        let got = frame_chunks(&[b"{\"id\"", b":1}", b"\n{\"id\":2", b"}\n"], 64);
        assert_eq!(got, [text("{\"id\":1}"), text("{\"id\":2}")]);
    }

    #[test]
    fn an_over_cap_line_completing_inside_one_chunk_is_answered_once() {
        let got = frame_chunks(&[b"ok\n0123456789\nnext\n"], 8);
        assert_eq!(got, [text("ok"), Item::Oversized, text("next")]);
        // Exactly at the cap is still a line.
        assert_eq!(frame_chunks(&[b"01234567\n"], 8), [text("01234567")]);
    }

    #[test]
    fn an_over_cap_line_spanning_many_reads_is_answered_once_and_resyncs() {
        let long = [b'x'; 10];
        let got = frame_chunks(&[&long, &long, &long, b"tail\nafter\n"], 8);
        assert_eq!(got, [Item::Oversized, text("after")]);
    }

    /// Split `bytes` at the given cut points (taken modulo the length).
    fn split<'a>(bytes: &'a [u8], cuts: &[usize]) -> Vec<&'a [u8]> {
        let mut at: Vec<usize> = cuts.iter().map(|c| c % (bytes.len() + 1)).collect();
        at.push(0);
        at.push(bytes.len());
        at.sort_unstable();
        at.windows(2).map(|w| &bytes[w[0]..w[1]]).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn framing_does_not_depend_on_read_boundaries(
            symbols in vec(0usize..6, 0..400),
            cuts in vec(0usize..10_000, 0..40),
            cap in 1usize..24,
        ) {
            // A small alphabet rich in newlines, CRs and blanks, so lines
            // of every length around the cap come up often.
            let bytes: Vec<u8> = symbols
                .iter()
                .map(|s| [b'\n', b'\r', b' ', b'a', b'b', 0xff][*s])
                .collect();
            let whole = frame_chunks(&[&bytes], cap);
            let chunked = frame_chunks(&split(&bytes, &cuts), cap);
            prop_assert_eq!(&whole, &chunked);
            for item in &whole {
                if let Item::Text(t) = item {
                    // One char per raw byte (0xff decodes to U+FFFD).
                    prop_assert!(t.chars().count() <= cap);
                }
            }
            // The first newline after an over-cap line resyncs: whatever
            // follows frames exactly as it would on a fresh stream.
            let mut prefixed = vec![b'z'; cap + 1];
            prefixed.extend_from_slice(&bytes);
            let after = frame_chunks(&split(&prefixed, &cuts), cap);
            let fresh = match bytes.iter().position(|&b| b == b'\n') {
                Some(nl) => frame_chunks(&[&bytes[nl + 1..]], cap),
                None => Vec::new(),
            };
            prop_assert_eq!(after.first(), Some(&Item::Oversized));
            prop_assert_eq!(&after[1..], &fresh[..]);
        }
    }
}
