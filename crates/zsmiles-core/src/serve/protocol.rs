//! The `zsmiles-serve` wire format.
//!
//! Every message — request or response — is one *frame*:
//!
//! ```text
//! ┌──────────────┬────────┬──────────────────────────┐
//! │ u32 LE len   │ opcode │ body (len - 1 bytes)     │
//! └──────────────┴────────┴──────────────────────────┘
//! ```
//!
//! The length prefix counts the opcode plus the body, not itself. All
//! integers are little-endian. Decoding is strict: a frame must consume
//! exactly its declared bytes, unknown opcodes and short bodies are
//! typed [`ZsmilesError::Protocol`] errors, and the reader enforces a
//! hard frame-size cap *before* allocating — a hostile 4 GiB length
//! prefix costs nothing.

use crate::error::ZsmilesError;
use std::io::{ErrorKind, Read};

/// Largest request frame a server will read: 1 MiB, enough for a
/// `get_many` of ~131 000 lines. Anything larger is refused before the
/// body is allocated.
pub const MAX_REQUEST_FRAME: usize = 1 << 20;

/// Largest response frame a client will read: 64 MiB of decoded lines.
pub const MAX_RESPONSE_FRAME: usize = 64 << 20;

/// Most lines a single `get_range` / `get_many` may ask for. Keeps the
/// worst-case response under [`MAX_RESPONSE_FRAME`] for realistic SMILES
/// and bounds per-request server memory.
pub const MAX_BATCH_LINES: usize = 1 << 16;

/// How many socket-timeout ticks `read_full` tolerates *mid-frame*
/// before declaring the peer stalled. With the server's 100 ms read
/// timeout this is a ~10 s patience window — a client that sends half a
/// frame and goes silent cannot pin a thread forever.
const MID_FRAME_PATIENCE: u32 = 100;

// Request opcodes.
const OP_GET: u8 = 0x01;
const OP_GET_RANGE: u8 = 0x02;
const OP_GET_MANY: u8 = 0x03;
const OP_STATS: u8 = 0x04;
const OP_FLIP: u8 = 0x05;
const OP_SHUTDOWN: u8 = 0x06;
const OP_HEALTH: u8 = 0x07;
const OP_TOP_HITS: u8 = 0x08;

// Response opcodes (high bit set).
const OP_LINES: u8 = 0x81;
const OP_STATS_REPLY: u8 = 0x82;
const OP_FLIPPED: u8 = 0x83;
const OP_BYE: u8 = 0x84;
const OP_HEALTH_REPLY: u8 = 0x85;
const OP_HITS: u8 = 0x86;
const OP_ERROR: u8 = 0xFF;

fn protocol(reason: impl Into<String>) -> ZsmilesError {
    ZsmilesError::Protocol {
        reason: reason.into(),
    }
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Decompress one global line.
    Get { line: u64 },
    /// Decompress the contiguous run `start..end`.
    GetRange { start: u64, end: u64 },
    /// Decompress an arbitrary set of lines, answered in request order.
    GetMany { lines: Vec<u64> },
    /// Server counters and the current generation.
    Stats,
    /// Atomically flip the served deck to the archive at `path`
    /// (server-local path, UTF-8).
    Flip { path: String },
    /// Stop the server once in-flight connections drain.
    Shutdown,
    /// Readiness/health probe: is the deck fully servable or degraded?
    Health,
    /// Run a screening campaign server-side: score every line of the
    /// served deck against `pattern` and return the `k` best hits —
    /// one round trip instead of a score pass plus `k` gets.
    TopHits { k: u32, pattern: String },
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Decoded SMILES lines, in request order.
    Lines(Vec<Vec<u8>>),
    /// Server counters.
    Stats(ServeStats),
    /// Flip succeeded; the generation now being served.
    Flipped { generation: u64 },
    /// Shutdown acknowledged.
    Bye,
    /// The health probe's answer.
    Health(HealthStats),
    /// Screening winners, best first (ties toward the smaller line).
    Hits(Vec<HitRow>),
    /// The request failed; the connection stays usable unless the frame
    /// itself was unreadable.
    Error { code: ErrorCode, message: String },
}

/// One `top_hits` winner as carried on the wire. The score travels as
/// raw `f64` bits so a wire row compares byte-exactly against a locally
/// computed one (and the enum stays `Eq`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HitRow {
    /// Global deck line number of the hit.
    pub index: u64,
    /// The hit's score, as `f64::to_bits`.
    pub score_bits: u64,
    /// The decompressed SMILES line.
    pub smiles: Vec<u8>,
}

impl HitRow {
    /// The score as a float (`f64::from_bits` of the wire word).
    pub fn score(&self) -> f64 {
        f64::from_bits(self.score_bits)
    }
}

/// Why a request failed, as carried on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The frame was malformed: bad opcode, short body, trailing bytes,
    /// oversized length prefix.
    BadFrame = 1,
    /// A line index past the end of the deck.
    OutOfRange = 2,
    /// A flip was refused (stale generation, unreadable archive).
    FlipRejected = 3,
    /// The server hit an internal error serving the request.
    Internal = 4,
    /// The server is at its connection cap.
    Busy = 5,
    /// The requested line lives on a quarantined shard of a degraded
    /// deck; other lines keep serving.
    Unavailable = 6,
    /// The request is valid but this server is not configured to run it
    /// (e.g. `top_hits` on a server started without a screener).
    Unsupported = 7,
}

impl ErrorCode {
    fn from_u8(b: u8) -> Result<ErrorCode, ZsmilesError> {
        Ok(match b {
            1 => ErrorCode::BadFrame,
            2 => ErrorCode::OutOfRange,
            3 => ErrorCode::FlipRejected,
            4 => ErrorCode::Internal,
            5 => ErrorCode::Busy,
            6 => ErrorCode::Unavailable,
            7 => ErrorCode::Unsupported,
            _ => return Err(protocol(format!("unknown error code {b}"))),
        })
    }
}

/// The `health` reply: is every line of the served deck answerable?
///
/// `status` is deliberately a coarse ok/degraded bit — orchestration
/// readiness probes want a yes/no, the counts explain the no.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthStats {
    /// `true` when every shard of the current generation is servable.
    pub ok: bool,
    /// Generation currently being served.
    pub generation: u64,
    /// Shards in the current deck (1 for a single-file archive).
    pub total_shards: u32,
    /// Shards quarantined by the degraded open (0 when `ok`).
    pub quarantined_shards: u32,
    /// Lines answering [`ErrorCode::Unavailable`] instead of bytes.
    pub unavailable_lines: u64,
}

/// The `stats` reply: a fixed-layout snapshot of the serving process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Generation currently being served.
    pub generation: u64,
    /// Lines in the current deck.
    pub lines: u64,
    /// `.zsa` files behind the current deck.
    pub shards: u32,
    /// Requests answered since start (all opcodes).
    pub requests: u64,
    /// Successful generation flips since start.
    pub flips: u64,
    /// Connections currently open.
    pub active_connections: u32,
    /// Blocks dropped from the cache by retired generations.
    pub retired_blocks: u64,
}

// --- primitive readers over a strict cursor -------------------------------

struct Cursor<'a> {
    body: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(body: &'a [u8]) -> Cursor<'a> {
        Cursor { body, at: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], ZsmilesError> {
        if self.body.len() - self.at < n {
            return Err(protocol(format!(
                "frame body ends inside {what}: need {n} bytes, {} left",
                self.body.len() - self.at
            )));
        }
        let s = &self.body[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, ZsmilesError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, ZsmilesError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> Result<u64, ZsmilesError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// How many of `n` announced entries, each at least `each` bytes
    /// on the wire, the rest of the body can hold: the capacity to
    /// reserve, so a hostile count costs no more than its frame.
    fn room_for(&self, n: usize, each: usize) -> usize {
        n.min((self.body.len() - self.at) / each)
    }

    fn finish(self, what: &str) -> Result<(), ZsmilesError> {
        if self.at != self.body.len() {
            return Err(protocol(format!(
                "{what} frame has {} trailing bytes",
                self.body.len() - self.at
            )));
        }
        Ok(())
    }
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Stamp the 4-byte length prefix over a frame built with a placeholder.
fn seal(mut frame: Vec<u8>) -> Vec<u8> {
    let body = (frame.len() - 4) as u32;
    frame[..4].copy_from_slice(&body.to_le_bytes());
    frame
}

fn open_frame(opcode: u8) -> Vec<u8> {
    let mut f = vec![0u8; 4];
    f.push(opcode);
    f
}

impl Request {
    /// Serialize to a complete frame (length prefix included).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::Get { line } => {
                let mut f = open_frame(OP_GET);
                put_u64(&mut f, *line);
                seal(f)
            }
            Request::GetRange { start, end } => {
                let mut f = open_frame(OP_GET_RANGE);
                put_u64(&mut f, *start);
                put_u64(&mut f, *end);
                seal(f)
            }
            Request::GetMany { lines } => {
                let mut f = open_frame(OP_GET_MANY);
                put_u32(&mut f, lines.len() as u32);
                for &l in lines {
                    put_u64(&mut f, l);
                }
                seal(f)
            }
            Request::Stats => seal(open_frame(OP_STATS)),
            Request::Flip { path } => {
                let mut f = open_frame(OP_FLIP);
                put_u32(&mut f, path.len() as u32);
                f.extend_from_slice(path.as_bytes());
                seal(f)
            }
            Request::Shutdown => seal(open_frame(OP_SHUTDOWN)),
            Request::Health => seal(open_frame(OP_HEALTH)),
            Request::TopHits { k, pattern } => {
                let mut f = open_frame(OP_TOP_HITS);
                put_u32(&mut f, *k);
                put_u32(&mut f, pattern.len() as u32);
                f.extend_from_slice(pattern.as_bytes());
                seal(f)
            }
        }
    }

    /// Parse a frame body (opcode + payload, no length prefix). Strict:
    /// short bodies, trailing bytes and unknown opcodes are errors.
    pub fn decode(body: &[u8]) -> Result<Request, ZsmilesError> {
        let mut c = Cursor::new(body);
        let op = c.u8("opcode")?;
        let req = match op {
            OP_GET => Request::Get {
                line: c.u64("get line number")?,
            },
            OP_GET_RANGE => Request::GetRange {
                start: c.u64("range start")?,
                end: c.u64("range end")?,
            },
            OP_GET_MANY => {
                let n = c.u32("get_many count")? as usize;
                if n > MAX_BATCH_LINES {
                    return Err(protocol(format!(
                        "get_many asks for {n} lines; the cap is {MAX_BATCH_LINES}"
                    )));
                }
                let mut lines = Vec::with_capacity(c.room_for(n, 8));
                for _ in 0..n {
                    lines.push(c.u64("get_many line number")?);
                }
                Request::GetMany { lines }
            }
            OP_STATS => Request::Stats,
            OP_FLIP => {
                let n = c.u32("flip path length")? as usize;
                let raw = c.take(n, "flip path")?;
                let path = std::str::from_utf8(raw)
                    .map_err(|_| protocol("flip path is not UTF-8"))?
                    .to_string();
                Request::Flip { path }
            }
            OP_SHUTDOWN => Request::Shutdown,
            OP_HEALTH => Request::Health,
            OP_TOP_HITS => {
                let k = c.u32("top_hits k")?;
                if k as usize > MAX_BATCH_LINES {
                    return Err(protocol(format!(
                        "top_hits asks for {k} hits; the cap is {MAX_BATCH_LINES}"
                    )));
                }
                let n = c.u32("top_hits pattern length")? as usize;
                let raw = c.take(n, "top_hits pattern")?;
                let pattern = std::str::from_utf8(raw)
                    .map_err(|_| protocol("top_hits pattern is not UTF-8"))?
                    .to_string();
                Request::TopHits { k, pattern }
            }
            other => return Err(protocol(format!("unknown request opcode 0x{other:02x}"))),
        };
        c.finish("request")?;
        Ok(req)
    }
}

impl Response {
    /// Serialize to a complete frame (length prefix included).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Response::Lines(lines) => {
                let mut f = open_frame(OP_LINES);
                put_u32(&mut f, lines.len() as u32);
                for l in lines {
                    put_u32(&mut f, l.len() as u32);
                    f.extend_from_slice(l);
                }
                seal(f)
            }
            Response::Stats(s) => {
                let mut f = open_frame(OP_STATS_REPLY);
                put_u64(&mut f, s.generation);
                put_u64(&mut f, s.lines);
                put_u32(&mut f, s.shards);
                put_u64(&mut f, s.requests);
                put_u64(&mut f, s.flips);
                put_u32(&mut f, s.active_connections);
                put_u64(&mut f, s.retired_blocks);
                seal(f)
            }
            Response::Flipped { generation } => {
                let mut f = open_frame(OP_FLIPPED);
                put_u64(&mut f, *generation);
                seal(f)
            }
            Response::Bye => seal(open_frame(OP_BYE)),
            Response::Health(h) => {
                let mut f = open_frame(OP_HEALTH_REPLY);
                f.push(h.ok as u8);
                put_u64(&mut f, h.generation);
                put_u32(&mut f, h.total_shards);
                put_u32(&mut f, h.quarantined_shards);
                put_u64(&mut f, h.unavailable_lines);
                seal(f)
            }
            Response::Hits(rows) => {
                let mut f = open_frame(OP_HITS);
                put_u32(&mut f, rows.len() as u32);
                for r in rows {
                    put_u64(&mut f, r.index);
                    put_u64(&mut f, r.score_bits);
                    put_u32(&mut f, r.smiles.len() as u32);
                    f.extend_from_slice(&r.smiles);
                }
                seal(f)
            }
            Response::Error { code, message } => {
                let mut f = open_frame(OP_ERROR);
                f.push(*code as u8);
                put_u32(&mut f, message.len() as u32);
                f.extend_from_slice(message.as_bytes());
                seal(f)
            }
        }
    }

    /// Parse a frame body (opcode + payload, no length prefix).
    pub fn decode(body: &[u8]) -> Result<Response, ZsmilesError> {
        let mut c = Cursor::new(body);
        let op = c.u8("opcode")?;
        let resp = match op {
            OP_LINES => {
                let n = c.u32("line count")? as usize;
                if n > MAX_BATCH_LINES {
                    return Err(protocol(format!(
                        "response carries {n} lines; the cap is {MAX_BATCH_LINES}"
                    )));
                }
                let mut lines = Vec::with_capacity(c.room_for(n, 4));
                for _ in 0..n {
                    let len = c.u32("line length")? as usize;
                    lines.push(c.take(len, "line bytes")?.to_vec());
                }
                Response::Lines(lines)
            }
            OP_STATS_REPLY => Response::Stats(ServeStats {
                generation: c.u64("generation")?,
                lines: c.u64("lines")?,
                shards: c.u32("shards")?,
                requests: c.u64("requests")?,
                flips: c.u64("flips")?,
                active_connections: c.u32("active connections")?,
                retired_blocks: c.u64("retired blocks")?,
            }),
            OP_FLIPPED => Response::Flipped {
                generation: c.u64("generation")?,
            },
            OP_BYE => Response::Bye,
            OP_HEALTH_REPLY => {
                let ok = match c.u8("health status")? {
                    0 => false,
                    1 => true,
                    other => return Err(protocol(format!("unknown health status {other}"))),
                };
                Response::Health(HealthStats {
                    ok,
                    generation: c.u64("generation")?,
                    total_shards: c.u32("total shards")?,
                    quarantined_shards: c.u32("quarantined shards")?,
                    unavailable_lines: c.u64("unavailable lines")?,
                })
            }
            OP_HITS => {
                let n = c.u32("hit count")? as usize;
                if n > MAX_BATCH_LINES {
                    return Err(protocol(format!(
                        "response carries {n} hits; the cap is {MAX_BATCH_LINES}"
                    )));
                }
                let mut rows = Vec::with_capacity(c.room_for(n, 20));
                for _ in 0..n {
                    let index = c.u64("hit index")?;
                    let score_bits = c.u64("hit score bits")?;
                    let len = c.u32("hit line length")? as usize;
                    rows.push(HitRow {
                        index,
                        score_bits,
                        smiles: c.take(len, "hit line bytes")?.to_vec(),
                    });
                }
                Response::Hits(rows)
            }
            OP_ERROR => {
                let code = ErrorCode::from_u8(c.u8("error code")?)?;
                let n = c.u32("error message length")? as usize;
                let raw = c.take(n, "error message")?;
                let message = String::from_utf8_lossy(raw).into_owned();
                Response::Error { code, message }
            }
            other => return Err(protocol(format!("unknown response opcode 0x{other:02x}"))),
        };
        c.finish("response")?;
        Ok(resp)
    }
}

/// What [`read_frame`] saw on the socket.
#[derive(Debug)]
pub enum FrameRead {
    /// A complete frame body (opcode + payload; length prefix consumed).
    Frame(Vec<u8>),
    /// The peer closed the connection cleanly between frames.
    Eof,
    /// The socket's read timeout expired with no frame started — the
    /// caller can check its shutdown flag and poll again.
    TimedOut,
}

/// Read until `buf` is full, riding out `Interrupted` and up to
/// [`MID_FRAME_PATIENCE`] read-timeout ticks; EOF mid-buffer is a
/// truncated-frame error.
fn read_full<R: Read>(r: &mut R, buf: &mut [u8], what: &str) -> Result<(), ZsmilesError> {
    let mut at = 0;
    let mut patience = MID_FRAME_PATIENCE;
    while at < buf.len() {
        match r.read(&mut buf[at..]) {
            Ok(0) => {
                return Err(protocol(format!(
                    "truncated frame: peer closed inside {what} ({at} of {} bytes)",
                    buf.len()
                )))
            }
            Ok(n) => at += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if patience == 0 {
                    return Err(protocol(format!("peer stalled mid-frame inside {what}")));
                }
                patience -= 1;
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// Read one frame: the `u32` length prefix, then exactly that many body
/// bytes, refusing lengths over `max` *before* allocating. Distinguishes
/// a clean close between frames ([`FrameRead::Eof`]) and a read-timeout
/// tick before any byte arrived ([`FrameRead::TimedOut`]) from real
/// protocol violations, which come back as
/// [`ZsmilesError::Protocol`].
pub fn read_frame<R: Read>(r: &mut R, max: usize) -> Result<FrameRead, ZsmilesError> {
    let mut len4 = [0u8; 4];
    loop {
        match r.read(&mut len4[..1]) {
            Ok(0) => return Ok(FrameRead::Eof),
            Ok(_) => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Ok(FrameRead::TimedOut)
            }
            Err(e) => return Err(e.into()),
        }
    }
    read_full(r, &mut len4[1..], "length prefix")?;
    let len = u32::from_le_bytes(len4) as usize;
    if len == 0 {
        return Err(protocol("zero-length frame (no opcode)"));
    }
    if len > max {
        return Err(protocol(format!(
            "oversized frame: {len} bytes declared, cap is {max}"
        )));
    }
    let mut body = vec![0u8; len];
    read_full(r, &mut body, "frame body")?;
    Ok(FrameRead::Frame(body))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(frame: &[u8]) -> &[u8] {
        let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
        assert_eq!(len, frame.len() - 4, "length prefix matches frame");
        &frame[4..]
    }

    #[test]
    fn request_roundtrips() {
        let reqs = [
            Request::Get { line: 7 },
            Request::GetRange { start: 3, end: 99 },
            Request::GetMany {
                lines: vec![0, 5, 5, u64::MAX],
            },
            Request::Stats,
            Request::Flip {
                path: "decks/next.zsm".into(),
            },
            Request::Shutdown,
            Request::Health,
            Request::TopHits {
                k: 25,
                pattern: "7".into(),
            },
        ];
        for req in reqs {
            let frame = req.encode();
            assert_eq!(Request::decode(body(&frame)).unwrap(), req);
        }
    }

    #[test]
    fn response_roundtrips() {
        let resps = [
            Response::Lines(vec![b"CCO".to_vec(), Vec::new(), b"c1ccccc1".to_vec()]),
            Response::Stats(ServeStats {
                generation: 4,
                lines: 100_000,
                shards: 7,
                requests: 123,
                flips: 2,
                active_connections: 9,
                retired_blocks: 512,
            }),
            Response::Flipped { generation: 5 },
            Response::Bye,
            Response::Health(HealthStats {
                ok: false,
                generation: 3,
                total_shards: 8,
                quarantined_shards: 1,
                unavailable_lines: 12_500,
            }),
            Response::Hits(vec![
                HitRow {
                    index: 41,
                    score_bits: 12.5f64.to_bits(),
                    smiles: b"c1ccccc1".to_vec(),
                },
                HitRow {
                    index: 7,
                    score_bits: f64::NEG_INFINITY.to_bits(),
                    smiles: Vec::new(),
                },
            ]),
            Response::Error {
                code: ErrorCode::Unavailable,
                message: "line 12 is on quarantined shard 'deck.00001.zsa'".into(),
            },
        ];
        for resp in resps {
            let frame = resp.encode();
            assert_eq!(Response::decode(body(&frame)).unwrap(), resp);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        // Unknown opcode.
        assert!(Request::decode(&[0x7f]).is_err());
        assert!(Response::decode(&[0x00]).is_err());
        // Empty body (no opcode).
        assert!(Request::decode(&[]).is_err());
        // Short body: get wants 8 bytes of line number.
        assert!(Request::decode(&[OP_GET, 1, 2]).is_err());
        // Trailing bytes after a valid opcode.
        let mut with_trailing = body(&Request::Stats.encode()).to_vec();
        with_trailing.push(0xAB);
        assert!(Request::decode(&with_trailing).is_err());
        // get_many whose count field overruns the body.
        let mut f = vec![OP_GET_MANY];
        f.extend_from_slice(&100u32.to_le_bytes());
        f.extend_from_slice(&0u64.to_le_bytes()); // only 1 of 100 lines
        assert!(Request::decode(&f).is_err());
        // get_many over the batch cap.
        let mut f = vec![OP_GET_MANY];
        f.extend_from_slice(&(MAX_BATCH_LINES as u32 + 1).to_le_bytes());
        assert!(Request::decode(&f).is_err());
        // Flip path that is not UTF-8.
        let mut f = vec![OP_FLIP];
        f.extend_from_slice(&2u32.to_le_bytes());
        f.extend_from_slice(&[0xFF, 0xFE]);
        assert!(Request::decode(&f).is_err());
        // Health reply whose status byte is neither 0 nor 1.
        let mut f = vec![OP_HEALTH_REPLY, 7];
        f.extend_from_slice(&[0u8; 24]);
        assert!(Response::decode(&f).is_err());
        // top_hits over the batch cap.
        let mut f = vec![OP_TOP_HITS];
        f.extend_from_slice(&(MAX_BATCH_LINES as u32 + 1).to_le_bytes());
        f.extend_from_slice(&0u32.to_le_bytes());
        assert!(Request::decode(&f).is_err());
        // top_hits pattern that is not UTF-8.
        let mut f = vec![OP_TOP_HITS];
        f.extend_from_slice(&5u32.to_le_bytes());
        f.extend_from_slice(&2u32.to_le_bytes());
        f.extend_from_slice(&[0xFF, 0xFE]);
        assert!(Request::decode(&f).is_err());
        // Hits row whose line length overruns the body.
        let mut f = vec![OP_HITS];
        f.extend_from_slice(&1u32.to_le_bytes());
        f.extend_from_slice(&0u64.to_le_bytes());
        f.extend_from_slice(&0u64.to_le_bytes());
        f.extend_from_slice(&100u32.to_le_bytes()); // promises 100 bytes, has 0
        assert!(Response::decode(&f).is_err());
    }

    #[test]
    fn read_frame_enforces_cap_and_eof() {
        use std::io::Cursor as IoCursor;
        // Clean EOF between frames.
        let mut empty = IoCursor::new(Vec::new());
        assert!(matches!(
            read_frame(&mut empty, MAX_REQUEST_FRAME).unwrap(),
            FrameRead::Eof
        ));
        // Oversized length prefix: refused without allocating.
        let mut big = IoCursor::new((u32::MAX).to_le_bytes().to_vec());
        assert!(matches!(
            read_frame(&mut big, MAX_REQUEST_FRAME),
            Err(ZsmilesError::Protocol { .. })
        ));
        // Zero-length frame.
        let mut zero = IoCursor::new(0u32.to_le_bytes().to_vec());
        assert!(matches!(
            read_frame(&mut zero, MAX_REQUEST_FRAME),
            Err(ZsmilesError::Protocol { .. })
        ));
        // Truncated body: header promises 10 bytes, stream ends after 3.
        let mut bytes = 10u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[1, 2, 3]);
        let mut trunc = IoCursor::new(bytes);
        assert!(matches!(
            read_frame(&mut trunc, MAX_REQUEST_FRAME),
            Err(ZsmilesError::Protocol { .. })
        ));
        // A well-formed frame comes back intact.
        let frame = Request::Get { line: 42 }.encode();
        let mut ok = IoCursor::new(frame.clone());
        match read_frame(&mut ok, MAX_REQUEST_FRAME).unwrap() {
            FrameRead::Frame(b) => assert_eq!(b, frame[4..]),
            other => panic!("expected a frame, got {other:?}"),
        }
    }
}
