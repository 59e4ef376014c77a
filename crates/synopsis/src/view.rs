//! Zero-copy inspection of a serialized summary.
//!
//! [`Summary::from_bytes`] materializes every interner and histogram —
//! the right call when the summary will serve queries, but far more work
//! than needed to answer "what is in this `.xps` file?": tooling that
//! lists tag counts, checks compatibility, or routes files by size wants
//! the envelope checked and the headline figures read without paying for
//! a full decode.
//!
//! [`SummaryView`] is that cheaper path. [`SummaryView::parse`] runs the
//! same integrity envelope as a full load (magic, version, length
//! framing, CRC-32 — one shared validation routine, so the two paths can
//! never diverge), then *walks* the payload once: every length prefix is
//! validated against the remaining bytes, every scalar of interest is
//! read in place with `from_le_bytes`, and **nothing is allocated** — no
//! interner tables, no histogram buckets, no strings. The borrowed view
//! keeps section offsets into the caller's buffer; tag names come back
//! as `&str` slices of that buffer, and [`SummaryView::to_summary`] is
//! the owned-decode fallback for when the caller decides it wants the
//! real thing after all.
//!
//! The workspace forbids `unsafe`, so "zero-copy" here means exactly
//! what safe Rust can deliver: in-place scalar reads and borrowed
//! slices, never a reinterpret-cast of the byte buffer.

use xpe_xml::wire::{Reader, WireError};

use crate::persist::{validated_payload, LoadError};
use crate::summary::Summary;

/// Offsets of one payload section (byte range within the payload).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SectionSpan {
    /// Byte offset of the section's first byte within the payload.
    pub start: usize,
    /// Byte offset one past the section's last byte.
    pub end: usize,
}

impl SectionSpan {
    /// The section's size in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the section is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Byte spans of every payload section, in file order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SectionSpans {
    /// Tag interner (names).
    pub tags: SectionSpan,
    /// Path-encoding table.
    pub encoding: SectionSpan,
    /// Path-id interner (bit sequences as set-bit lists).
    pub pids: SectionSpan,
    /// Construction config scalars (p/o variance).
    pub config: SectionSpan,
    /// P-histogram set.
    pub phist: SectionSpan,
    /// O-histogram set.
    pub ohist: SectionSpan,
}

/// A validated, borrowed view over a serialized summary (`.xps` bytes).
///
/// See the module docs above for what "zero-copy" buys and where its
/// limits are. Construction cost is one linear walk of the payload with
/// no allocation; every accessor afterwards is O(1) except
/// [`tag_names`](Self::tag_names) (which re-walks the tags section,
/// yielding borrowed `&str`s) and [`to_summary`](Self::to_summary) (the
/// full owned decode).
#[derive(Clone, Copy, Debug)]
pub struct SummaryView<'a> {
    payload: &'a [u8],
    version: u32,
    sections: SectionSpans,
    tag_count: u32,
    encoding_count: u32,
    pid_width: u32,
    pid_count: u32,
    p_variance: f64,
    o_variance: f64,
    p_buckets: u64,
    o_buckets: u64,
}

impl<'a> SummaryView<'a> {
    /// Validates `bytes` (envelope and structural walk) and builds the
    /// view. Allocation-free; errors mirror [`Summary::from_bytes`] —
    /// the same magic/version/length/CRC checks run first, and a payload
    /// whose length prefixes disagree with its byte count is rejected
    /// with the same `WireError` a full decode would produce. The
    /// sections are cross-checked as a full decode does (one histogram
    /// per tag, no reference to a tag or pid beyond the image's counts);
    /// uniqueness of tag names, encoding paths and pid bit sets is not,
    /// as it needs a table, so an image that repeats one parses here and
    /// fails in [`to_summary`](Self::to_summary).
    pub fn parse(bytes: &'a [u8]) -> Result<Self, LoadError> {
        let (version, payload) = validated_payload(bytes)?;
        let mut r = Reader::new(payload);

        // Tags: u32 count, then length-prefixed names.
        let tags_start = r.position();
        let tag_count = r.u32()?;
        for _ in 0..tag_count {
            let len = r.u32()? as usize;
            r.bytes(len)?;
        }

        // Encoding table: u32 count, then u32-length tag-id paths.
        let encoding_start = r.position();
        let encoding_count = r.u32()?;
        for _ in 0..encoding_count {
            let len = r.u32()? as usize;
            if any_at_least(r.bytes(len * 4)?, tag_count) {
                return Err(WireError::BadHeader("encoding path names an unknown tag").into());
            }
        }

        // Pid interner: u32 width, u32 count, then set-bit lists.
        let pids_start = r.position();
        let pid_width = r.u32()?;
        let pid_count = r.u32()?;
        for _ in 0..pid_count {
            let ones = r.u32()? as usize;
            r.bytes(ones * 4)?;
        }

        // Config scalars.
        let config_start = r.position();
        let p_variance = r.f64()?;
        let o_variance = r.f64()?;

        // P-histogram set: f64 variance, u32 tags, then per-tag
        // histograms of (f64 avg, u32 pid-count, pids) buckets.
        let phist_start = r.position();
        let _p_set_variance = r.f64()?;
        let p_tags = r.u32()?;
        if p_tags != tag_count {
            return Err(WireError::BadHeader("p-histogram count disagrees with tag count").into());
        }
        let mut p_buckets: u64 = 0;
        for _ in 0..p_tags {
            let nb = r.u32()?;
            p_buckets += nb as u64;
            for _ in 0..nb {
                r.f64()?;
                let np = r.u32()? as usize;
                if any_at_least(r.bytes(np * 4)?, pid_count) {
                    return Err(WireError::BadHeader("histogram names an unknown pid").into());
                }
            }
        }

        // O-histogram set: f64 variance, u32 tags, rank array, then
        // per-tag histograms of 24-byte buckets plus a pid→column map.
        let ohist_start = r.position();
        let _o_set_variance = r.f64()?;
        let o_tags = r.u32()?;
        if o_tags != tag_count {
            return Err(WireError::BadHeader("o-histogram count disagrees with tag count").into());
        }
        r.bytes(o_tags as usize * 4)?;
        let mut o_buckets: u64 = 0;
        for _ in 0..o_tags {
            let nb = r.u32()? as usize;
            o_buckets += nb as u64;
            r.bytes(nb * 24)?;
            // (pid, column) pairs: the pid is the first u32 of each 8.
            let nc = r.u32()? as usize;
            let cols = r.bytes(nc * 8)?;
            if cols
                .chunks_exact(8)
                .any(|c| any_at_least(&c[..4], pid_count))
            {
                return Err(WireError::BadHeader("histogram names an unknown pid").into());
            }
        }
        let payload_end = r.position();
        r.expect_exhausted()?;

        Ok(SummaryView {
            payload,
            version,
            sections: SectionSpans {
                tags: SectionSpan {
                    start: tags_start,
                    end: encoding_start,
                },
                encoding: SectionSpan {
                    start: encoding_start,
                    end: pids_start,
                },
                pids: SectionSpan {
                    start: pids_start,
                    end: config_start,
                },
                config: SectionSpan {
                    start: config_start,
                    end: phist_start,
                },
                phist: SectionSpan {
                    start: phist_start,
                    end: ohist_start,
                },
                ohist: SectionSpan {
                    start: ohist_start,
                    end: payload_end,
                },
            },
            tag_count,
            encoding_count,
            pid_width,
            pid_count,
            p_variance,
            o_variance,
            p_buckets,
            o_buckets,
        })
    }

    /// The format version of the underlying image (1 or 2).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The validated payload bytes (header and trailer stripped).
    pub fn payload(&self) -> &'a [u8] {
        self.payload
    }

    /// Byte spans of every payload section, in file order.
    pub fn sections(&self) -> SectionSpans {
        self.sections
    }

    /// Number of interned tag names.
    pub fn tag_count(&self) -> usize {
        self.tag_count as usize
    }

    /// Number of distinct root-to-leaf path encodings.
    pub fn encoding_count(&self) -> usize {
        self.encoding_count as usize
    }

    /// Width (bit count) of every path id.
    pub fn pid_width(&self) -> u32 {
        self.pid_width
    }

    /// Number of distinct path ids.
    pub fn pid_count(&self) -> usize {
        self.pid_count as usize
    }

    /// The p-histogram construction variance threshold.
    pub fn p_variance(&self) -> f64 {
        self.p_variance
    }

    /// The o-histogram construction variance threshold.
    pub fn o_variance(&self) -> f64 {
        self.o_variance
    }

    /// Total p-histogram buckets across all tags.
    pub fn p_bucket_count(&self) -> u64 {
        self.p_buckets
    }

    /// Total o-histogram buckets across all tags.
    pub fn o_bucket_count(&self) -> u64 {
        self.o_buckets
    }

    /// The interned tag names, in id order, borrowed straight out of the
    /// underlying buffer — no `String` is ever built. UTF-8 is validated
    /// per name at iteration time (the parse walk checks lengths only).
    pub fn tag_names(&self) -> impl Iterator<Item = Result<&'a str, WireError>> + '_ {
        let mut r = Reader::new(&self.payload[self.sections.tags.start..self.sections.tags.end]);
        let count = r.u32().unwrap_or(0);
        (0..count).map(move |_| r.str_ref())
    }

    /// The owned-decode fallback: materializes the full [`Summary`] this
    /// view describes, exactly as [`Summary::from_bytes`] would have.
    pub fn to_summary(&self) -> Result<Summary, LoadError> {
        let mut r = Reader::new(self.payload);
        Ok(Summary::decode_payload(&mut r)?)
    }
}

/// Whether any little-endian `u32` of `bytes` (a whole number of them) is
/// at least `bound`: a tag or pid reference to something never interned.
fn any_at_least(bytes: &[u8], bound: u32) -> bool {
    bytes
        .chunks_exact(4)
        .any(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]) >= bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::SummaryConfig;

    fn summary() -> Summary {
        Summary::build(
            &xpe_xml::fixtures::paper_figure1(),
            SummaryConfig {
                p_variance: 1.0,
                o_variance: 2.0,
                ..SummaryConfig::default()
            },
        )
    }

    #[test]
    fn view_reads_headline_figures_without_decoding() {
        let s = summary();
        let bytes = s.to_bytes();
        let view = SummaryView::parse(&bytes).unwrap();
        assert_eq!(view.version(), 2);
        assert_eq!(view.tag_count(), s.tags.len());
        assert_eq!(view.encoding_count(), s.encoding.len());
        assert_eq!(view.pid_count(), s.pids.len());
        assert_eq!(view.pid_width(), s.encoding.len() as u32);
        assert_eq!(view.p_variance(), s.config.p_variance);
        assert_eq!(view.o_variance(), s.config.o_variance);
        assert!(view.p_bucket_count() > 0);
        assert!(view.o_bucket_count() > 0);
    }

    #[test]
    fn sections_tile_the_payload_exactly() {
        let s = summary();
        let bytes = s.to_bytes();
        let view = SummaryView::parse(&bytes).unwrap();
        let sec = view.sections();
        assert_eq!(sec.tags.start, 0);
        for (a, b) in [
            (sec.tags, sec.encoding),
            (sec.encoding, sec.pids),
            (sec.pids, sec.config),
            (sec.config, sec.phist),
            (sec.phist, sec.ohist),
        ] {
            assert_eq!(a.end, b.start);
            assert!(!a.is_empty());
        }
        assert_eq!(sec.ohist.end, view.payload().len());
        assert_eq!(sec.config.len(), 16, "two f64 scalars");
    }

    #[test]
    fn tag_names_are_borrowed_and_complete() {
        let s = summary();
        let bytes = s.to_bytes();
        let view = SummaryView::parse(&bytes).unwrap();
        let names: Vec<&str> = view.tag_names().map(|n| n.unwrap()).collect();
        let expected: Vec<&str> = s.tags.iter().map(|(_, n)| n).collect();
        assert_eq!(names, expected);
        // The returned slices genuinely alias the input buffer.
        let buf_range = bytes.as_ptr() as usize..bytes.as_ptr() as usize + bytes.len();
        for n in &names {
            assert!(buf_range.contains(&(n.as_ptr() as usize)));
        }
    }

    #[test]
    fn to_summary_matches_from_bytes() {
        let s = summary();
        let bytes = s.to_bytes();
        let via_view = SummaryView::parse(&bytes).unwrap().to_summary().unwrap();
        let direct = Summary::from_bytes(&bytes).unwrap();
        assert_eq!(via_view.tags.len(), direct.tags.len());
        assert_eq!(via_view.pids.len(), direct.pids.len());
        assert_eq!(via_view.config, direct.config);
        for (pid, bits) in direct.pids.iter() {
            assert_eq!(via_view.pids.bits(pid), bits);
        }
    }

    #[test]
    fn view_rejects_what_full_decode_rejects() {
        let s = summary();
        let bytes = s.to_bytes();
        // Corruption classes: bad magic, payload bit-flip (CRC), and
        // truncation all fail the same way as Summary::from_bytes.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(SummaryView::parse(&bad).is_err());
        let mut bad = bytes.clone();
        bad[20] ^= 0x10;
        assert!(matches!(
            SummaryView::parse(&bad),
            Err(LoadError::ChecksumMismatch { .. })
        ));
        for cut in (0..bytes.len()).step_by(13) {
            assert!(SummaryView::parse(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }
}
