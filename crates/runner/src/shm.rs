//! File-backed shared-memory channel transport (§5.2, §A.2).
//!
//! The paper's core mechanism connects co-located simulator processes
//! through optimized shared-memory message queues with polling-based
//! synchronization; sockets are only for cross-host links. This module
//! provides that fast path for `crate::dist`: one memory-mapped file per
//! cross-partition link carrying two fixed-slot SPSC rings (one per
//! direction), with the same ownership protocol as the in-process queue of
//! `simbricks_base::spsc` — a per-slot control byte whose top bit encodes
//! ownership (producer/consumer) and whose low seven bits carry the message
//! type, written with release ordering and read with acquire ordering, so
//! the only shared cache traffic carries useful data. Unlike the in-process
//! queue, each slot carries its payload inline; slots are padded to a
//! multiple of two cache lines to avoid false sharing, and each side keeps
//! its ring index local (never shared), exactly like the paper's queues.
//!
//! ## Region layout
//!
//! ```text
//! offset 0    magic "SBSH", version, state, a_closed, b_closed
//! offset 8    link-name length (u16 LE) + name bytes (max 256)
//! offset 266  ChannelParams wire encoding (67 bytes incl. impairment)
//! offset 333  slots per ring (u32 LE), slot stride (u32 LE)
//! offset 4096 ring A→B: slots × stride
//! ...         ring B→A: slots × stride
//! ```
//!
//! ## Handshake
//!
//! The creating side (the link owner, mirroring the listening side of the
//! TCP proxy) writes the header — the same metadata the SBPX socket
//! handshake frame carries: link name plus serialized
//! [`ChannelParams`] — then publishes `state = READY` with release ordering.
//! The attaching side polls for the file, validates magic, version, link
//! name, and parameters against its own build-derived values, and flips
//! `state` to `ATTACHED`; on any mismatch it poisons the region
//! (`state = POISONED`) so the creator fails fast instead of simulating
//! against mis-wired queues. Per-side `closed` flags give the rings the same
//! flush-then-EOF semantics as a TCP shutdown.
//!
//! Cleanup: the creator unlinks the region file when its endpoint drops;
//! the `dist` orchestrator additionally removes the per-run region directory
//! when workers are reaped (normally or on abort), so crashed runs never
//! leak regions.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use simbricks_base::{BufPool, ChannelEnd, ChannelParams, OwnedMsg, PktBuf, SimTime, MAX_PAYLOAD};

use crate::proxy::{ProxyCounters, ShutdownSignal};
use crate::transport::Transport;

/// Magic bytes opening every shm region header.
const SHM_MAGIC: [u8; 4] = *b"SBSH";
/// Version of the region layout.
const SHM_VERSION: u8 = 1;
/// Size reserved for the region header (one page).
const HEADER_LEN: usize = 4096;
/// Upper bound on the link name stored in the header.
const MAX_NAME: usize = 256;

// Header field offsets.
const OFF_MAGIC: usize = 0;
const OFF_VERSION: usize = 4;
const OFF_STATE: usize = 5;
const OFF_A_CLOSED: usize = 6;
const OFF_B_CLOSED: usize = 7;
const OFF_NAME_LEN: usize = 8;
const OFF_NAME: usize = 10;
const OFF_PARAMS: usize = OFF_NAME + MAX_NAME; // 266
const OFF_SLOTS: usize = OFF_PARAMS + ChannelParams::WIRE_LEN; // 333
const OFF_STRIDE: usize = OFF_SLOTS + 4; // 337

// Region handshake states.
const STATE_READY: u8 = 1;
const STATE_ATTACHED: u8 = 2;
const STATE_POISONED: u8 = 3;

// Slot layout: control byte first, then the header (timestamp, length), then
// the payload inline, padded to a multiple of two cache lines. The protocol
// on the control byte is that of `simbricks_base::slot`; the layout is not
// (in-process queues keep payloads in a separate arena).
const SLOT_OFF_CTRL: usize = 0;
const SLOT_OFF_TS: usize = 8;
const SLOT_OFF_LEN: usize = 16;
const SLOT_OFF_PAYLOAD: usize = 24;
const SLOT_ALIGN: usize = 128;
/// Control-byte bit marking the slot as owned by the consumer.
const OWNER_CONSUMER: u8 = 0x80;
const TYPE_MASK: u8 = 0x7f;

/// Bytes per slot, 128-byte aligned so neighbouring control bytes never
/// share a cache line pair.
const fn slot_stride() -> usize {
    (SLOT_OFF_PAYLOAD + MAX_PAYLOAD).div_ceil(SLOT_ALIGN) * SLOT_ALIGN
}

/// Total region size for `slots` slots per ring.
fn region_len(slots: usize) -> usize {
    region_len_for(slots, slot_stride())
}

/// Total region size for an arbitrary (header-supplied) geometry.
fn region_len_for(slots: usize, stride: usize) -> usize {
    HEADER_LEN + 2 * slots * stride
}

// ---------------------------------------------------------------------------
// mmap FFI (no external crates; the platform C library is already linked)
// ---------------------------------------------------------------------------

#[cfg(unix)]
mod sys {
    use std::io;
    use std::os::fd::AsRawFd;

    use std::os::raw::{c_int, c_void};

    const PROT_READ: c_int = 1;
    const PROT_WRITE: c_int = 2;
    const MAP_SHARED: c_int = 1;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// Map `len` bytes of `file` shared read-write.
    pub(super) fn map_shared(file: &std::fs::File, len: usize) -> io::Result<*mut u8> {
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 || ptr.is_null() {
            return Err(io::Error::last_os_error());
        }
        Ok(ptr as *mut u8)
    }

    pub(super) fn unmap(ptr: *mut u8, len: usize) {
        unsafe {
            munmap(ptr as *mut c_void, len);
        }
    }
}

/// Whether this platform supports the shared-memory transport.
pub fn shm_supported() -> bool {
    cfg!(unix)
}

#[cfg(not(unix))]
mod sys {
    use std::io;

    pub(super) fn map_shared(_file: &std::fs::File, _len: usize) -> io::Result<*mut u8> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "shared-memory transport requires a unix platform (use --transport tcp)",
        ))
    }

    pub(super) fn unmap(_ptr: *mut u8, _len: usize) {}
}

// ---------------------------------------------------------------------------
// Region
// ---------------------------------------------------------------------------

/// A mapped shm region. The creating side owns the file and unlinks it on
/// drop; both sides unmap.
#[derive(Debug)]
pub(crate) struct ShmRegion {
    ptr: *mut u8,
    len: usize,
    path: PathBuf,
    owner: bool,
    slots: usize,
    stride: usize,
}

// Safety: all shared mutation goes through the per-slot/per-flag `AtomicU8`
// ownership protocol (acquire/release), exactly as in `simbricks_base::slot`.
unsafe impl Send for ShmRegion {}
unsafe impl Sync for ShmRegion {}

impl Drop for ShmRegion {
    fn drop(&mut self) {
        sys::unmap(self.ptr, self.len);
        if self.owner {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

impl ShmRegion {
    fn atomic_at(&self, off: usize) -> &AtomicU8 {
        debug_assert!(off < self.len);
        // Safety: `off` is in bounds and the byte is only accessed as an
        // AtomicU8 by both processes.
        unsafe { &*(self.ptr.add(off) as *const AtomicU8) }
    }

    fn write_bytes(&self, off: usize, data: &[u8]) {
        debug_assert!(off + data.len() <= self.len);
        unsafe {
            std::ptr::copy_nonoverlapping(data.as_ptr(), self.ptr.add(off), data.len());
        }
    }

    fn read_bytes(&self, off: usize, out: &mut [u8]) {
        debug_assert!(off + out.len() <= self.len);
        unsafe {
            std::ptr::copy_nonoverlapping(self.ptr.add(off), out.as_mut_ptr(), out.len());
        }
    }

    fn state(&self) -> u8 {
        self.atomic_at(OFF_STATE).load(Ordering::Acquire)
    }

    fn poison(&self) {
        self.atomic_at(OFF_STATE).store(STATE_POISONED, Ordering::Release);
    }
}

/// Create the region file for `link` (the owning / listening side),
/// returning the A-side endpoint. The header carries the same metadata as
/// the SBPX socket handshake and is published with `state = READY`.
pub fn create_region(
    path: &Path,
    link: &str,
    params: ChannelParams,
) -> io::Result<ShmEndpoint> {
    if link.len() > MAX_NAME {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "link name too long"));
    }
    let slots = params.queue_len.max(2);
    let len = region_len(slots);
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)?;
    file.set_len(len as u64)?;
    let ptr = sys::map_shared(&file, len)?;
    let region = ShmRegion {
        ptr,
        len,
        path: path.to_path_buf(),
        owner: true,
        slots,
        stride: slot_stride(),
    };
    region.write_bytes(OFF_MAGIC, &SHM_MAGIC);
    region.write_bytes(OFF_VERSION, &[SHM_VERSION]);
    region.write_bytes(OFF_NAME_LEN, &(link.len() as u16).to_le_bytes());
    region.write_bytes(OFF_NAME, link.as_bytes());
    region.write_bytes(OFF_PARAMS, &params.to_wire());
    region.write_bytes(OFF_SLOTS, &(slots as u32).to_le_bytes());
    region.write_bytes(OFF_STRIDE, &(slot_stride() as u32).to_le_bytes());
    // Publish: everything above must be visible before READY is observed.
    region.atomic_at(OFF_STATE).store(STATE_READY, Ordering::Release);
    Ok(ShmEndpoint::new(Arc::new(region), Side::A))
}

/// Attach to the region `create_region` publishes at `path` (the connecting
/// side), validating the handshake metadata against this side's own `link`
/// name and build-derived `params`. Polls until the creator has published
/// the header or `deadline` passes; a metadata mismatch poisons the region
/// so the creator fails fast too.
pub fn attach_region(
    path: &Path,
    link: &str,
    params: ChannelParams,
    deadline: Instant,
    shutdown: &ShutdownSignal,
) -> io::Result<ShmEndpoint> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let slots = params.queue_len.max(2);
    loop {
        if shutdown.is_set() {
            return Err(io::Error::new(io::ErrorKind::Interrupted, "shutdown during attach"));
        }
        if Instant::now() > deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("shm region {} never became ready", path.display()),
            ));
        }
        match probe_region(path)? {
            Some(region) => {
                let mut magic = [0u8; 4];
                region.read_bytes(OFF_MAGIC, &mut magic);
                if magic != SHM_MAGIC {
                    region.poison();
                    return Err(bad("shm region magic mismatch"));
                }
                let mut version = [0u8];
                region.read_bytes(OFF_VERSION, &mut version);
                if version[0] != SHM_VERSION {
                    region.poison();
                    return Err(bad("shm region version mismatch"));
                }
                let mut nlen = [0u8; 2];
                region.read_bytes(OFF_NAME_LEN, &mut nlen);
                let nlen = u16::from_le_bytes(nlen) as usize;
                let mut name = vec![0u8; nlen.min(MAX_NAME)];
                region.read_bytes(OFF_NAME, &mut name);
                if nlen > MAX_NAME || name != link.as_bytes() {
                    region.poison();
                    return Err(bad("shm region link name mismatch"));
                }
                let mut pwire = [0u8; ChannelParams::WIRE_LEN];
                region.read_bytes(OFF_PARAMS, &mut pwire);
                if ChannelParams::from_wire(&pwire) != Some(params) {
                    region.poison();
                    return Err(bad("shm region channel params mismatch"));
                }
                if region.slots != slots || region.stride != slot_stride() {
                    // Covers queue_len mismatches too: geometry is read from
                    // the creator's header, so a differently-sized region is
                    // rejected (and poisoned) here instead of hanging the
                    // attach poll until the connect timeout.
                    region.poison();
                    return Err(bad("shm region ring geometry mismatch"));
                }
                region.atomic_at(OFF_STATE).store(STATE_ATTACHED, Ordering::Release);
                return Ok(ShmEndpoint::new(Arc::new(region), Side::B));
            }
            None => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// Open and map the region at `path` if the creator has fully published it
/// (file exists, `state == READY`, and its size matches the geometry in its
/// own header). `Ok(None)` means "not yet" — the attacher keeps polling. The
/// geometry is taken from the creator's header, never from the attacher's
/// expectations, so a creator/attacher parameter mismatch surfaces as a fast
/// validation failure in [`attach_region`] rather than an endless poll.
fn probe_region(path: &Path) -> io::Result<Option<ShmRegion>> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let mut file = match File::options().read(true).write(true).open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let file_len = file.metadata()?.len();
    if file_len < HEADER_LEN as u64 {
        return Ok(None);
    }
    // Peek the state byte through the file before paying for the mapping;
    // the creator publishes it (with release ordering) only after the whole
    // header — including the geometry fields — is written.
    let mut state = [0u8];
    file.seek(SeekFrom::Start(OFF_STATE as u64))?;
    file.read_exact(&mut state)?;
    if state[0] == 0 {
        return Ok(None);
    }
    let mut geom = [0u8; 8];
    file.seek(SeekFrom::Start(OFF_SLOTS as u64))?;
    file.read_exact(&mut geom)?;
    // io-ok: infallible - both slices are exactly 4 bytes
    let slots = u32::from_le_bytes(geom[0..4].try_into().unwrap()) as usize;
    // io-ok: infallible - both slices are exactly 4 bytes
    let stride = u32::from_le_bytes(geom[4..8].try_into().unwrap()) as usize;
    // The mapping length must come from the header the creator wrote; an
    // inconsistent file (truncated, or not a SimBricks region at all) is an
    // error, not a "keep polling".
    if slots < 2 || stride == 0 || region_len_for(slots, stride) as u64 != file_len {
        return Err(bad("shm region size inconsistent with its header"));
    }
    let len = region_len_for(slots, stride);
    let ptr = sys::map_shared(&file, len)?;
    Ok(Some(ShmRegion {
        ptr,
        len,
        path: path.to_path_buf(),
        owner: false,
        slots,
        stride,
    }))
}

// ---------------------------------------------------------------------------
// Endpoint: one side's producer/consumer view of the two rings
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Side {
    /// The creating side: produces into ring A→B, consumes ring B→A.
    A,
    /// The attaching side.
    B,
}

/// Error returned by [`ShmEndpoint::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShmPushError {
    /// The next slot is still owned by the consumer.
    Full,
    /// Payload exceeds [`MAX_PAYLOAD`].
    TooLarge,
}

/// Error returned by [`ShmEndpoint::pop`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShmPopError {
    /// The peer published a slot whose length field exceeds
    /// [`MAX_PAYLOAD`]: the region is corrupt. The slot is left unconsumed.
    BadLength(u32),
}

/// One side of an shm link: a producer index into its transmit ring and a
/// consumer index into its receive ring, both process-local (never shared),
/// as in the paper's queue design.
#[derive(Debug)]
pub struct ShmEndpoint {
    region: Arc<ShmRegion>,
    side: Side,
    tx_idx: usize,
    rx_idx: usize,
    /// Arena received payloads are copied into straight out of the mapped
    /// ring (one copy, no heap allocation on a warm pool).
    pool: BufPool,
}

impl ShmEndpoint {
    fn new(region: Arc<ShmRegion>, side: Side) -> Self {
        ShmEndpoint {
            region,
            side,
            tx_idx: 0,
            rx_idx: 0,
            pool: BufPool::new(),
        }
    }

    fn ring_base(&self, tx: bool) -> usize {
        let ring_bytes = self.region.slots * self.region.stride;
        // Ring A→B first, then B→A.
        let a_to_b = HEADER_LEN;
        let b_to_a = HEADER_LEN + ring_bytes;
        match (self.side, tx) {
            (Side::A, true) | (Side::B, false) => a_to_b,
            (Side::A, false) | (Side::B, true) => b_to_a,
        }
    }

    fn closed_flag_off(&self, mine: bool) -> usize {
        match (self.side, mine) {
            (Side::A, true) | (Side::B, false) => OFF_A_CLOSED,
            (Side::A, false) | (Side::B, true) => OFF_B_CLOSED,
        }
    }

    /// Enqueue one message into the transmit ring. Non-blocking.
    pub fn push(&mut self, msg: &OwnedMsg) -> Result<(), ShmPushError> {
        if msg.data.len() > MAX_PAYLOAD {
            return Err(ShmPushError::TooLarge);
        }
        let base = self.ring_base(true) + self.tx_idx * self.region.stride;
        let ctrl = self.region.atomic_at(base + SLOT_OFF_CTRL);
        if ctrl.load(Ordering::Acquire) & OWNER_CONSUMER != 0 {
            return Err(ShmPushError::Full);
        }
        self.region
            .write_bytes(base + SLOT_OFF_TS, &msg.timestamp.as_ps().to_le_bytes());
        self.region
            .write_bytes(base + SLOT_OFF_LEN, &(msg.data.len() as u32).to_le_bytes());
        self.region.write_bytes(base + SLOT_OFF_PAYLOAD, &msg.data);
        ctrl.store(OWNER_CONSUMER | (msg.ty & TYPE_MASK), Ordering::Release);
        self.tx_idx += 1;
        if self.tx_idx == self.region.slots {
            self.tx_idx = 0;
        }
        Ok(())
    }

    /// Dequeue the next message from the receive ring, if any. The length
    /// field is written by another process, so a value beyond
    /// [`MAX_PAYLOAD`] is reported as [`ShmPopError::BadLength`] rather than
    /// trusted or truncated.
    pub fn pop(&mut self) -> Result<Option<OwnedMsg>, ShmPopError> {
        let base = self.ring_base(false) + self.rx_idx * self.region.stride;
        let ctrl = self.region.atomic_at(base + SLOT_OFF_CTRL);
        let c = ctrl.load(Ordering::Acquire);
        if c & OWNER_CONSUMER == 0 {
            return Ok(None);
        }
        let mut ts = [0u8; 8];
        self.region.read_bytes(base + SLOT_OFF_TS, &mut ts);
        let mut len = [0u8; 4];
        self.region.read_bytes(base + SLOT_OFF_LEN, &mut len);
        let raw_len = u32::from_le_bytes(len);
        let len = raw_len as usize;
        if len > MAX_PAYLOAD {
            return Err(ShmPopError::BadLength(raw_len));
        }
        // One copy: mapped ring straight into a pooled segment (no heap
        // allocation on a warm pool; SYNCs are allocation-free).
        let data = if len == 0 {
            PktBuf::empty()
        } else {
            let mut b = self.pool.alloc_capacity(len, 0);
            let region = &self.region;
            b.extend_with(len, |dst| region.read_bytes(base + SLOT_OFF_PAYLOAD, dst));
            b
        };
        let msg = OwnedMsg::new(
            SimTime::from_ps(u64::from_le_bytes(ts)),
            c & TYPE_MASK,
            data,
        );
        ctrl.store(0, Ordering::Release);
        self.rx_idx += 1;
        if self.rx_idx == self.region.slots {
            self.rx_idx = 0;
        }
        Ok(Some(msg))
    }

    /// Mark this side closed (everything it will ever send is in the ring).
    pub fn set_closed(&self) {
        self.region
            .atomic_at(self.closed_flag_off(true))
            .store(1, Ordering::Release);
    }

    /// Whether the peer side has closed (its ring contents are final).
    pub fn peer_closed(&self) -> bool {
        self.region
            .atomic_at(self.closed_flag_off(false))
            .load(Ordering::Acquire)
            != 0
            || self.region.state() == STATE_POISONED
    }

    /// Creator side: wait until the peer attached (or poisoned the region /
    /// the deadline passed / shutdown was signalled).
    pub fn wait_attached(
        &self,
        deadline: Instant,
        shutdown: &ShutdownSignal,
    ) -> io::Result<()> {
        debug_assert_eq!(self.side, Side::A);
        loop {
            match self.region.state() {
                STATE_ATTACHED => return Ok(()),
                STATE_POISONED => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "peer rejected the shm region handshake",
                    ))
                }
                _ => {}
            }
            if shutdown.is_set() {
                return Err(io::Error::new(io::ErrorKind::Interrupted, "shutdown during attach"));
            }
            if Instant::now() > deadline {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "shm peer never attached"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

// ---------------------------------------------------------------------------
// Transport impl
// ---------------------------------------------------------------------------

/// An shm link side as a [`Transport`]. The handshake may still be pending
/// when the forwarder thread starts — builds must never block on connection
/// ordering — so the transport carries one of three states and completes the
/// handshake (wait for the attacher, or attach lazily) on the forwarding
/// thread before entering the loop.
pub struct ShmTransport {
    state: ShmTransportState,
}

enum ShmTransportState {
    /// Handshake already complete (e.g. an in-process proxy pair).
    Ready(ShmEndpoint),
    /// Creator side: region published, peer not yet attached.
    AwaitPeer(ShmEndpoint, Instant),
    /// Attacher side: region possibly not even created yet.
    Attach {
        path: PathBuf,
        link: String,
        params: ChannelParams,
        deadline: Instant,
    },
}

impl ShmTransport {
    /// A fully handshaken endpoint.
    pub(crate) fn ready(endpoint: ShmEndpoint) -> Self {
        ShmTransport {
            state: ShmTransportState::Ready(endpoint),
        }
    }

    /// Creator side: wait (on the forwarding thread) until the peer attaches
    /// or `deadline` passes before forwarding.
    pub(crate) fn await_peer(endpoint: ShmEndpoint, deadline: Instant) -> Self {
        ShmTransport {
            state: ShmTransportState::AwaitPeer(endpoint, deadline),
        }
    }

    /// Attacher side: attach to `path` (on the forwarding thread, polling
    /// until the creator publishes the region) and validate the handshake
    /// metadata before forwarding.
    pub(crate) fn attach(
        path: PathBuf,
        link: impl Into<String>,
        params: ChannelParams,
        deadline: Instant,
    ) -> Self {
        ShmTransport {
            state: ShmTransportState::Attach {
                path,
                link: link.into(),
                params,
                deadline,
            },
        }
    }
}

impl Transport for ShmTransport {
    fn name(&self) -> &'static str {
        "shm"
    }

    fn forward(
        self: Box<Self>,
        local: ChannelEnd,
        counters: Arc<ProxyCounters>,
        shutdown: Arc<ShutdownSignal>,
    ) {
        let endpoint = match self.state {
            ShmTransportState::Ready(ep) => ep,
            ShmTransportState::AwaitPeer(ep, deadline) => {
                if let Err(e) = ep.wait_attached(deadline, &shutdown) {
                    eprintln!("shm transport: peer never attached: {e}");
                    return;
                }
                ep
            }
            ShmTransportState::Attach {
                path,
                link,
                params,
                deadline,
            } => match attach_region(&path, &link, params, deadline, &shutdown) {
                Ok(ep) => ep,
                Err(e) => {
                    eprintln!("shm transport: attach failed on link {link:?}: {e}");
                    return;
                }
            },
        };
        shm_forward_loop(endpoint, local, &counters, &shutdown);
    }
}

/// One side of an shm-bridged link: forward everything between the local
/// channel stub and the mapped rings until the local component endpoint
/// disappears, the peer side closes, or `shutdown` is signalled. Mirrors the
/// semantics of `crate::proxy::tcp_forward_loop`: nothing is dropped or
/// reordered, the local side is fully flushed before close, and backpressure
/// (full ring, full local queue) is retried, never fatal.
pub(crate) fn shm_forward_loop(
    mut endpoint: ShmEndpoint,
    mut local: ChannelEnd,
    counters: &ProxyCounters,
    shutdown: &ShutdownSignal,
) {
    let mut pending: Option<OwnedMsg> = None;
    loop {
        if shutdown.is_set() {
            endpoint.set_closed();
            return;
        }
        let mut idle = true;
        // Read both close flags before draining: a closer finishes its last
        // send/push *before* raising its flag, so a drain performed after
        // observing a flag is guaranteed to have flushed everything.
        let local_closing = local.peer_closed();
        let peer_closing = endpoint.peer_closed();
        // Local -> ring (batched: everything queued locally in one round).
        let mut moved = 0u64;
        let mut moved_bytes = 0u64;
        loop {
            let msg = match pending.take() {
                Some(m) => m,
                None => match local.recv_raw() {
                    Some(m) => m,
                    None => break,
                },
            };
            match endpoint.push(&msg) {
                Ok(()) => {
                    moved += 1;
                    moved_bytes += msg.data.len() as u64;
                }
                Err(ShmPushError::Full) => {
                    pending = Some(msg);
                    break;
                }
                Err(ShmPushError::TooLarge) => {
                    // Cannot happen: local channel slots share MAX_PAYLOAD.
                    endpoint.set_closed();
                    return;
                }
            }
        }
        if moved > 0 {
            counters.record_batch(moved, moved_bytes);
            idle = false;
        }
        if local_closing && pending.is_none() {
            endpoint.set_closed();
            return;
        }
        // Ring -> local (retry until the component drains its queue).
        loop {
            let msg = match endpoint.pop() {
                Ok(Some(m)) => m,
                Ok(None) => break,
                Err(ShmPopError::BadLength(len)) => {
                    eprintln!(
                        "shm transport: peer wrote a corrupt slot length {len}; closing link"
                    );
                    endpoint.set_closed();
                    return;
                }
            };
            loop {
                if shutdown.is_set() {
                    endpoint.set_closed();
                    return;
                }
                match local.send_raw(msg.timestamp, msg.ty, &msg.data) {
                    Ok(()) => break,
                    Err(simbricks_base::SendError::Full) => std::thread::yield_now(),
                    Err(_) => {
                        endpoint.set_closed();
                        return;
                    }
                }
            }
            idle = false;
        }
        if peer_closing {
            // The flag was up before the drain above, so the (now empty)
            // ring contents were final and have all been injected locally.
            // A still-pending local message can never be delivered — the
            // peer stopped reading — matching a TCP peer that closed.
            endpoint.set_closed();
            return;
        }
        if idle {
            std::thread::yield_now();
        }
    }
}

/// A unique region path for `link` under `dir` (sanitized so arbitrary link
/// names cannot escape the directory).
pub(crate) fn region_path(dir: &Path, link: &str) -> PathBuf {
    let mut name: String = link
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .collect();
    // Distinct links must get distinct files even after sanitization.
    let mut h: u64 = 0xcbf29ce484222325;
    for b in link.as_bytes() {
        h = (h ^ *b as u64).wrapping_mul(0x100000001b3);
    }
    name.push_str(&format!("-{h:016x}.shm"));
    dir.join(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbricks_base::MSG_SYNC;

    fn temp_path(tag: &str) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "simbricks-shm-test-{}-{tag}-{n}.shm",
            std::process::id()
        ))
    }

    fn soon() -> Instant {
        Instant::now() + Duration::from_secs(5)
    }

    #[test]
    fn create_attach_push_pop_roundtrip() {
        let path = temp_path("roundtrip");
        let params = ChannelParams::default_sync().with_queue_len(8);
        let sd = ShutdownSignal::default();
        let mut a = create_region(&path, "l0", params).unwrap();
        let mut b = attach_region(&path, "l0", params, soon(), &sd).unwrap();
        for i in 0..20u64 {
            // Interleave so the ring wraps.
            a.push(&OwnedMsg::new(SimTime::from_ns(i), 5, i.to_le_bytes().to_vec()))
                .unwrap();
            let m = b.pop().unwrap().unwrap();
            assert_eq!(m.timestamp, SimTime::from_ns(i));
            assert_eq!(m.ty, 5);
            assert_eq!(m.data, i.to_le_bytes().to_vec());
        }
        // Reverse direction, including a SYNC.
        b.push(&OwnedMsg::sync(SimTime::from_ns(7))).unwrap();
        let m = a.pop().unwrap().unwrap();
        assert_eq!(m.ty, MSG_SYNC);
        assert!(m.data.is_empty());
    }

    #[test]
    fn ring_fills_and_drains_in_fifo_order() {
        let path = temp_path("fifo");
        let params = ChannelParams::default_sync().with_queue_len(4);
        let sd = ShutdownSignal::default();
        let mut a = create_region(&path, "l1", params).unwrap();
        let mut b = attach_region(&path, "l1", params, soon(), &sd).unwrap();
        for i in 0..4u64 {
            a.push(&OwnedMsg::new(SimTime::from_ns(i), 1, vec![i as u8])).unwrap();
        }
        assert_eq!(
            a.push(&OwnedMsg::new(SimTime::ZERO, 1, vec![])),
            Err(ShmPushError::Full)
        );
        for i in 0..4u64 {
            assert_eq!(b.pop().unwrap().unwrap().data, vec![i as u8]);
        }
        assert_eq!(b.pop(), Ok(None));
    }

    #[test]
    fn pop_rejects_a_corrupt_slot_length() {
        let path = temp_path("badlen");
        let params = ChannelParams::default_sync().with_queue_len(4);
        let sd = ShutdownSignal::default();
        let mut a = create_region(&path, "l", params).unwrap();
        let mut b = attach_region(&path, "l", params, soon(), &sd).unwrap();
        a.push(&OwnedMsg::new(SimTime::from_ns(1), 3, vec![7u8; 16]))
            .unwrap();
        // The peer overwrites the published slot's length field.
        let base = b.ring_base(false);
        let bad = MAX_PAYLOAD as u32 + 1;
        b.region
            .write_bytes(base + SLOT_OFF_LEN, &bad.to_le_bytes());
        assert_eq!(b.pop(), Err(ShmPopError::BadLength(bad)));
        // The slot stays unconsumed: the error repeats instead of skipping.
        assert_eq!(b.pop(), Err(ShmPopError::BadLength(bad)));
        b.region
            .write_bytes(base + SLOT_OFF_LEN, &u32::MAX.to_le_bytes());
        assert_eq!(b.pop(), Err(ShmPopError::BadLength(u32::MAX)));
        // A length of exactly MAX_PAYLOAD is still accepted.
        b.region
            .write_bytes(base + SLOT_OFF_LEN, &(MAX_PAYLOAD as u32).to_le_bytes());
        assert_eq!(b.pop().unwrap().unwrap().data.len(), MAX_PAYLOAD);
    }

    #[test]
    fn attach_validates_handshake_metadata() {
        let params = ChannelParams::default_sync().with_queue_len(8);
        let sd = ShutdownSignal::default();

        // Wrong link name.
        let path = temp_path("name");
        let _a = create_region(&path, "left", params).unwrap();
        let deadline = Instant::now() + Duration::from_millis(500);
        let err = attach_region(&path, "right", params, deadline, &sd).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Wrong channel parameters (latency differs).
        let path = temp_path("params");
        let a = create_region(&path, "l", params).unwrap();
        let other = params.with_latency(SimTime::from_ns(9));
        let deadline = Instant::now() + Duration::from_millis(500);
        let err = attach_region(&path, "l", other, deadline, &sd).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // The rejection poisoned the region, so the creator fails fast too.
        let err = a.wait_attached(Instant::now() + Duration::from_millis(200), &sd).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Differing queue lengths change the region size; the attacher must
        // reject fast from the creator's header geometry, not poll the
        // wrong expected size until the connect timeout.
        let path = temp_path("qlen");
        let _a = create_region(&path, "l", params).unwrap();
        let other = ChannelParams::default_sync().with_queue_len(32);
        let deadline = Instant::now() + Duration::from_millis(500);
        let before = Instant::now();
        let err = attach_region(&path, "l", other, deadline, &sd).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(before.elapsed() < Duration::from_millis(400), "failed fast, no timeout poll");

        // Missing region times out instead of hanging.
        let path = temp_path("missing");
        let deadline = Instant::now() + Duration::from_millis(100);
        let err = attach_region(&path, "l", params, deadline, &sd).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn creator_drop_unlinks_the_region_file() {
        let path = temp_path("unlink");
        let params = ChannelParams::default_sync().with_queue_len(4);
        let sd = ShutdownSignal::default();
        let a = create_region(&path, "l", params).unwrap();
        let b = attach_region(&path, "l", params, soon(), &sd).unwrap();
        assert!(path.exists());
        drop(b);
        assert!(path.exists(), "attacher drop keeps the file");
        drop(a);
        assert!(!path.exists(), "creator drop unlinks the region");
    }

    #[test]
    fn closed_flags_propagate_between_sides() {
        let path = temp_path("close");
        let params = ChannelParams::default_sync().with_queue_len(4);
        let sd = ShutdownSignal::default();
        let a = create_region(&path, "l", params).unwrap();
        let b = attach_region(&path, "l", params, soon(), &sd).unwrap();
        assert!(!a.peer_closed());
        assert!(!b.peer_closed());
        b.set_closed();
        assert!(a.peer_closed());
        assert!(!b.peer_closed());
        a.set_closed();
        assert!(b.peer_closed());
    }

    #[test]
    fn cross_thread_transfer_with_wrapping() {
        let path = temp_path("threads");
        let params = ChannelParams::default_sync().with_queue_len(8);
        let sd = ShutdownSignal::default();
        let mut a = create_region(&path, "l", params).unwrap();
        let mut b = attach_region(&path, "l", params, soon(), &sd).unwrap();
        let n = 10_000u64;
        let producer = std::thread::spawn(move || {
            let mut sent = 0u64;
            while sent < n {
                let msg = OwnedMsg::new(SimTime::from_ps(sent), 5, sent.to_le_bytes().to_vec());
                match a.push(&msg) {
                    Ok(()) => sent += 1,
                    Err(ShmPushError::Full) => std::thread::yield_now(),
                    Err(e) => panic!("push failed: {e:?}"),
                }
            }
        });
        let mut expect = 0u64;
        while expect < n {
            match b.pop().unwrap() {
                Some(m) => {
                    assert_eq!(m.data, expect.to_le_bytes().to_vec());
                    assert_eq!(m.timestamp, SimTime::from_ps(expect));
                    expect += 1;
                }
                None => std::thread::yield_now(),
            }
        }
        producer.join().unwrap();
    }

    #[test]
    fn region_path_sanitizes_and_distinguishes() {
        let dir = PathBuf::from("/tmp/x");
        let p1 = region_path(&dir, "a/b");
        let p2 = region_path(&dir, "a_b");
        assert_ne!(p1, p2, "sanitized collisions disambiguated by hash");
        assert!(p1.starts_with(&dir));
        assert!(p1.file_name().unwrap().to_str().unwrap().ends_with(".shm"));
        assert!(!p1.to_str().unwrap().contains("a/b"));
    }

    #[cfg(feature = "proptest")]
    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::VecDeque;

        proptest! {
            /// Random push/pop interleavings through the mmap ring behave
            /// exactly like a VecDeque model: FIFO order, no loss, no
            /// duplication, Full exactly when the model holds `queue_len`
            /// messages.
            #[test]
            fn ring_matches_vecdeque_model(
                ops in proptest::collection::vec(any::<bool>(), 1..400),
                qlen in 2usize..16,
                payload_len in 0usize..64,
            ) {
                let path = temp_path("prop");
                let params = ChannelParams::default_sync().with_queue_len(qlen);
                let sd = ShutdownSignal::default();
                let mut a = create_region(&path, "prop", params).unwrap();
                let mut b = attach_region(&path, "prop", params, soon(), &sd).unwrap();
                let mut model: VecDeque<OwnedMsg> = VecDeque::new();
                let mut seq = 0u64;
                for push in ops {
                    if push {
                        let msg = OwnedMsg::new(
                            SimTime::from_ps(seq),
                            (seq % 127 + 1) as u8,
                            vec![(seq % 251) as u8; payload_len],
                        );
                        seq += 1;
                        match a.push(&msg) {
                            Ok(()) => model.push_back(msg),
                            Err(ShmPushError::Full) => {
                                prop_assert_eq!(model.len(), qlen, "Full only when the model is full");
                            }
                            Err(e) => prop_assert!(false, "unexpected push error {:?}", e),
                        }
                    } else {
                        let got = b.pop().unwrap();
                        let want = model.pop_front();
                        prop_assert_eq!(got, want, "pop matches the model exactly");
                    }
                }
                // Drain: everything still queued comes out in order.
                while let Some(want) = model.pop_front() {
                    prop_assert_eq!(b.pop(), Ok(Some(want)));
                }
                prop_assert_eq!(b.pop(), Ok(None));
            }
        }
    }
}
