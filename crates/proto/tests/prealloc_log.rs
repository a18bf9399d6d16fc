//! Crash shapes of the preallocated `wal.log`: records overwrite written
//! zeros, the log ends at the first all-zero frame header, and
//! `FileDisk::load` hands the decoder only the written prefix.
//!
//! 1. Every byte-cut of the last frame, zeros after it, loads as the
//!    prefix before that frame, and a reopen appends right after it.
//! 2. A frame whose CRC fails is torn when only zeros follow it and
//!    corrupt when any written byte does.
//! 3. Appends across chunk boundaries, a frame larger than a chunk, and
//!    a compaction followed by a reopen read back every record; only
//!    opening and growing the file take a full sync.
//! 4. A directory written before the log was preallocated — its log
//!    ends at the end of the file — still loads and reopens.

use std::fs;
use std::path::{Path, PathBuf};

use mc_model::{Loc, VClock, Value};
use mc_proto::durability::WAL_CHUNK;
use mc_proto::{decode_wal, FileDisk, Snapshot, UpdatePayload, WalRecord, WalTail};

/// A replica directory under the system temp dir, removed on drop.
struct Dir(PathBuf);

impl Dir {
    fn new(tag: &str) -> Dir {
        let path = std::env::temp_dir().join(format!("mc-prealloc-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        Dir(path)
    }

    fn wal(&self) -> PathBuf {
        self.0.join("wal.log")
    }
}

impl Drop for Dir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// The `i`-th test record; `width` sets the size of its clock. Its last
/// byte is never zero, so every cut of its frame changes it.
fn record(i: u32, width: u32) -> WalRecord {
    WalRecord::OwnWrite {
        loc: Loc(i % 7),
        payload: UpdatePayload::Set(Value::Int(i64::from(i) * 1_000_003)),
        deps: Some((1..=width).map(|c| (c * i + 1) | 1 << 31).collect::<VClock>()),
    }
}

/// What recovery reads from `dir`: the snapshot, the decoded records and
/// how the log ended.
fn load(dir: &Path) -> (Option<Vec<u8>>, Vec<WalRecord>, WalTail) {
    let (snapshot, log) = FileDisk::load(dir).expect("the directory loads");
    let (records, tail) = decode_wal(&log);
    (snapshot, records, tail)
}

fn snapshot(incarnation: u32) -> Vec<u8> {
    Snapshot { incarnation, applied: VClock::new(2), ..Default::default() }.encode()
}

/// Every cut of the last frame, with zeros to the end of the file, is a
/// torn tail (a cut at its first byte is a clean end), and the reopened
/// log continues right after the frame before it — with or without a
/// snapshot in front of the log.
#[test]
fn every_cut_of_the_last_frame_loads_the_prefix_and_reopens_after_it() {
    for with_snapshot in [false, true] {
        let dir = Dir::new(&format!("cut-{with_snapshot}"));
        let mut disk = FileDisk::open(&dir.0).unwrap();
        if with_snapshot {
            disk.install_snapshot(&snapshot(1)).unwrap();
        }
        let records: Vec<WalRecord> = (0..4).map(|i| record(i, 2)).collect();
        for r in &records {
            disk.append(&r.encode()).unwrap();
        }
        disk.sync().unwrap();
        drop(disk);
        let image = fs::read(dir.wal()).unwrap();
        let (snap, _, _) = load(&dir.0);
        let front = snap.map_or(0, |s| s.len());
        let last = records[3].encode().len();
        let prefix: usize = front + records[..3].iter().map(|r| r.encode().len()).sum::<usize>();
        let next = record(99, 2);
        for cut in prefix..prefix + last {
            let mut torn = image.clone();
            torn[cut..prefix + last].fill(0);
            fs::write(dir.wal(), &torn).unwrap();
            let (_, got, tail) = load(&dir.0);
            assert_eq!(got, records[..3], "cut at {cut}");
            let want =
                if cut == prefix { WalTail::Clean } else { WalTail::Torn { at: prefix - front } };
            assert_eq!(tail, want, "cut at {cut}");

            let mut disk = FileDisk::open(&dir.0).unwrap();
            assert_eq!(disk.take_full_syncs(), u64::from(cut > prefix), "only a cut is synced");
            disk.append(&next.encode()).unwrap();
            disk.sync().unwrap();
            drop(disk);
            let (_, got, tail) = load(&dir.0);
            assert_eq!((&got[..3], &got[3], tail), (&records[..3], &next, WalTail::Clean), "{cut}");
            let file = fs::read(dir.wal()).unwrap();
            assert_eq!(file[..prefix], image[..prefix]);
            assert_eq!(file[prefix..prefix + next.encode().len()], next.encode()[..]);
            assert!(file[prefix + next.encode().len()..].iter().all(|&b| b == 0), "{cut}");
        }
    }
}

/// A frame whose CRC fails is torn when only zeros follow it, and
/// corrupt as soon as any written byte does — a record behind it, or a
/// stray byte deep in the zero tail.
#[test]
fn a_crc_failure_is_torn_before_zeros_and_corrupt_before_written_bytes() {
    let dir = Dir::new("crc");
    let mut disk = FileDisk::open(&dir.0).unwrap();
    let records: Vec<WalRecord> = (0..3).map(|i| record(i, 2)).collect();
    for r in &records {
        disk.append(&r.encode()).unwrap();
    }
    disk.sync().unwrap();
    drop(disk);
    let image = fs::read(dir.wal()).unwrap();
    let sizes: Vec<usize> = records.iter().map(|r| r.encode().len()).collect();
    let (second, third) = (sizes[0], sizes[0] + sizes[1]);

    let flip = |at: usize, stray: Option<usize>| {
        let mut bad = image.clone();
        bad[at] ^= 0x40;
        if let Some(s) = stray {
            bad[s] = 1;
        }
        fs::write(dir.wal(), &bad).unwrap();
        let (_, got, tail) = load(&dir.0);
        (got.len(), tail)
    };
    // The middle frame fails with a whole frame behind it.
    assert_eq!(flip(second + 10, None), (1, WalTail::Corrupt { at: second }));
    // The last frame fails and only zeros follow: torn.
    assert_eq!(flip(third + 10, None), (2, WalTail::Torn { at: third }));
    // The same, with one written byte far into the zero tail: corrupt.
    assert_eq!(flip(third + 10, Some(image.len() - 1)), (2, WalTail::Corrupt { at: third }));
    assert_eq!(flip(third + 10, Some(third + sizes[2])), (2, WalTail::Corrupt { at: third }));
    // A CRC-valid body that does not parse is corrupt too.
    let mut bad = image.clone();
    let garbage = WalRecord::Incarnation { incarnation: 7 }.encode();
    let body = &garbage[8..];
    let mut frame = (body.len() as u32 + 1).to_le_bytes().to_vec();
    let mut longer = body.to_vec();
    longer.push(0xff);
    frame.extend(mc_proto::crc32(&longer).to_le_bytes());
    frame.extend(&longer);
    bad[third..third + frame.len()].copy_from_slice(&frame);
    bad[third + frame.len()..].fill(0);
    fs::write(dir.wal(), &bad).unwrap();
    assert_eq!(load(&dir.0).2, WalTail::Corrupt { at: third });
}

/// Appends that cross several chunk boundaries, one frame larger than a
/// whole chunk, then a compaction and a reopen: every record reads back,
/// and only the syncs after the file grew flush its size.
#[test]
fn appends_across_chunks_and_a_compaction_round_trip() {
    let dir = Dir::new("chunks");
    let mut disk = FileDisk::open(&dir.0).unwrap();
    assert_eq!(disk.take_full_syncs(), 1, "a new log is created and extended");
    let mut records = Vec::new();
    let (mut written, mut len, mut grown) = (0, WAL_CHUNK, 0);
    for i in 0..160 {
        let r = record(i, 100);
        let frame = r.encode();
        disk.append(&frame).unwrap();
        disk.sync().unwrap();
        written += frame.len();
        let grows = written > len;
        while len < written {
            len += WAL_CHUNK;
        }
        assert_eq!(disk.take_full_syncs(), u64::from(grows), "record {i}");
        grown += u64::from(grows);
        records.push(r);
    }
    assert!(grown >= 3, "{written} bytes, {grown} growths");
    let huge = record(64, (WAL_CHUNK / 4 + 100) as u32);
    assert!(huge.encode().len() > WAL_CHUNK);
    disk.append(&huge.encode()).unwrap();
    disk.sync().unwrap();
    assert_eq!(disk.take_full_syncs(), 1);
    records.push(huge);
    assert_eq!(load(&dir.0), (None, records.clone(), WalTail::Clean));

    // A reopened log has room: opening it changes nothing.
    drop(disk);
    let mut disk = FileDisk::open(&dir.0).unwrap();
    assert_eq!(disk.take_full_syncs(), 0);
    let after = record(65, 2);
    disk.append(&after.encode()).unwrap();
    disk.sync().unwrap();
    records.push(after);
    assert_eq!(load(&dir.0), (None, records, WalTail::Clean));

    // A compaction starts a log of one snapshot and one zero chunk; a
    // reopen appends after what was logged since.
    disk.install_snapshot(&snapshot(2)).unwrap();
    assert_eq!(fs::metadata(dir.wal()).unwrap().len() as usize, snapshot(2).len() + WAL_CHUNK);
    let tail: Vec<WalRecord> = (70..80).map(|i| record(i, 2)).collect();
    for r in &tail[..5] {
        disk.append(&r.encode()).unwrap();
    }
    disk.sync().unwrap();
    drop(disk);
    let mut disk = FileDisk::open(&dir.0).unwrap();
    for r in &tail[5..] {
        disk.append(&r.encode()).unwrap();
    }
    disk.sync().unwrap();
    assert_eq!(disk.take_full_syncs(), 0, "no sync since the compaction grew the file");
    assert_eq!(load(&dir.0), (Some(snapshot(2)), tail, WalTail::Clean));
}

/// A log written before preallocation ends at the end of its file: it
/// loads as before — a frame cut by the end of the file is torn — and a
/// reopen appends right after its last whole frame.
#[test]
fn a_log_without_a_zero_tail_still_recovers() {
    let dir = Dir::new("eof");
    fs::create_dir_all(&dir.0).unwrap();
    let records: Vec<WalRecord> = (0..5).map(|i| record(i, 2)).collect();
    let mut image = snapshot(3);
    let front = image.len();
    for r in &records {
        image.extend(r.encode());
    }
    let whole = image.len();
    image.extend(&record(5, 2).encode()[..9]);
    for (len, tail) in [(whole, WalTail::Clean), (image.len(), WalTail::Torn { at: whole - front })]
    {
        fs::write(dir.wal(), &image[..len]).unwrap();
        fs::write(dir.0.join("history.log"), b"").unwrap();
        assert_eq!(load(&dir.0), (Some(snapshot(3)), records.clone(), tail));

        let mut disk = FileDisk::open(&dir.0).unwrap();
        assert_eq!(disk.take_full_syncs(), 1, "the log gains its zero tail");
        let next = record(6, 2);
        disk.append(&next.encode()).unwrap();
        disk.sync().unwrap();
        let mut want = records.clone();
        want.push(next);
        assert_eq!(load(&dir.0), (Some(snapshot(3)), want, WalTail::Clean));
        let size = fs::metadata(dir.wal()).unwrap().len() as usize;
        assert_eq!(size, whole + WAL_CHUNK);
    }
}
