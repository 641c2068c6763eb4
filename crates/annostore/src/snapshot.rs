//! Annotation-store snapshots: a compact binary format for saving and
//! restoring an [`AnnotationStore`] — annotations with their metadata,
//! every edge (true and predicted, with weights), and the cell-granularity
//! refinements. Pairs with `relstore::snapshot` so a whole annotated
//! database round-trips: tuple ids are preserved by the relational
//! snapshot, so the edges stay valid.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic "NEBANN1\0"
//! u64 annotation_count
//! per annotation: string text, opt string author, opt string kind
//! u64 edge_count
//! per edge: u64 annotation, u32 table, u64 row, u8 kind, f64 weight
//! u64 cell_count
//! per cell: u64 annotation, u32 table, u64 row, u32 column
//! ```

use crate::annotation::{Annotation, AnnotationId};
use crate::graph::EdgeKind;
use crate::store::{AnnotationStore, AttachmentTarget};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use relstore::schema::{ColumnId, TableId};
use relstore::TupleId;
use std::fmt;

const MAGIC: &[u8; 8] = b"NEBANN1\0";

/// Errors from snapshot decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not start with the expected magic.
    BadMagic,
    /// The buffer ended before the structure was complete.
    Truncated(&'static str),
    /// A tag or reference was out of range.
    Corrupt(String),
    /// A string was not valid UTF-8.
    BadString,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not an annostore snapshot (bad magic)"),
            SnapshotError::Truncated(what) => write!(f, "snapshot truncated while reading {what}"),
            SnapshotError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            SnapshotError::BadString => write!(f, "invalid UTF-8 string in snapshot"),
        }
    }
}

impl std::error::Error for SnapshotError {}

fn put_string(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn put_opt_string(buf: &mut BytesMut, s: &Option<String>) {
    match s {
        Some(s) => {
            buf.put_u8(1);
            put_string(buf, s);
        }
        None => buf.put_u8(0),
    }
}

fn get_string(buf: &mut Bytes) -> Result<String, SnapshotError> {
    if buf.remaining() < 4 {
        return Err(SnapshotError::Truncated("string length"));
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(SnapshotError::Truncated("string body"));
    }
    String::from_utf8(buf.copy_to_bytes(len).to_vec()).map_err(|_| SnapshotError::BadString)
}

fn get_opt_string(buf: &mut Bytes) -> Result<Option<String>, SnapshotError> {
    if buf.remaining() < 1 {
        return Err(SnapshotError::Truncated("option flag"));
    }
    if buf.get_u8() == 0 {
        Ok(None)
    } else {
        Ok(Some(get_string(buf)?))
    }
}

fn put_tuple_id(buf: &mut BytesMut, tid: TupleId) {
    buf.put_u32_le(tid.table.0);
    buf.put_u64_le(tid.row);
}

fn get_tuple_id(buf: &mut Bytes) -> Result<TupleId, SnapshotError> {
    if buf.remaining() < 12 {
        return Err(SnapshotError::Truncated("tuple id"));
    }
    Ok(TupleId::new(TableId(buf.get_u32_le()), buf.get_u64_le()))
}

/// Serialize a store to bytes.
pub fn save(store: &AnnotationStore) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    buf.put_u64_le(store.annotation_count() as u64);
    for (_, a) in store.iter_annotations() {
        put_string(&mut buf, &a.text);
        put_opt_string(&mut buf, &a.author);
        put_opt_string(&mut buf, &a.kind);
    }
    // Canonical (sorted) edge order: restore rebuilds the per-tuple and
    // per-annotation attachment lists in `(annotation, tuple)` order, not
    // original insertion order.
    let mut edges: Vec<_> = store.iter_edges().collect();
    edges.sort_by_key(|e| (e.annotation, e.tuple));
    buf.put_u64_le(edges.len() as u64);
    for e in edges {
        buf.put_u64_le(e.annotation.0);
        put_tuple_id(&mut buf, e.tuple);
        buf.put_u8(match e.kind {
            EdgeKind::True => 0,
            EdgeKind::Predicted => 1,
        });
        buf.put_f64_le(e.weight);
    }
    // Cells are sorted too, so the encoding is canonical: two stores with
    // the same logical content produce identical bytes (the durability
    // layer compares states by snapshot digest).
    let mut cells: Vec<(AnnotationId, TupleId, ColumnId)> = store.iter_cell_columns().collect();
    cells.sort();
    buf.put_u64_le(cells.len() as u64);
    for (aid, tid, cid) in cells {
        buf.put_u64_le(aid.0);
        put_tuple_id(&mut buf, tid);
        buf.put_u32_le(cid.0);
    }
    buf.freeze()
}

/// Restore a store from bytes produced by [`save`].
pub fn load(bytes: &[u8]) -> Result<AnnotationStore, SnapshotError> {
    let mut buf = Bytes::copy_from_slice(bytes);
    if buf.remaining() < MAGIC.len() || &buf.copy_to_bytes(MAGIC.len())[..] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let mut store = AnnotationStore::new();
    if buf.remaining() < 8 {
        return Err(SnapshotError::Truncated("annotation count"));
    }
    let count = buf.get_u64_le();
    // Each annotation costs at least a text length and two option flags;
    // fail a hostile count up front instead of looping on it.
    if count > (buf.remaining() / 6) as u64 {
        return Err(SnapshotError::Corrupt(format!("implausible annotation count {count}")));
    }
    for _ in 0..count {
        let text = get_string(&mut buf)?;
        let author = get_opt_string(&mut buf)?;
        let kind = get_opt_string(&mut buf)?;
        let mut a = Annotation::new(text);
        a.author = author;
        a.kind = kind;
        store.add_annotation(a);
    }
    if buf.remaining() < 8 {
        return Err(SnapshotError::Truncated("edge count"));
    }
    let edges = buf.get_u64_le();
    if edges > (buf.remaining() / 29) as u64 {
        return Err(SnapshotError::Corrupt(format!("implausible edge count {edges}")));
    }
    for _ in 0..edges {
        if buf.remaining() < 8 {
            return Err(SnapshotError::Truncated("edge annotation"));
        }
        let aid = AnnotationId(buf.get_u64_le());
        let tid = get_tuple_id(&mut buf)?;
        if buf.remaining() < 9 {
            return Err(SnapshotError::Truncated("edge kind/weight"));
        }
        let kind = buf.get_u8();
        let weight = buf.get_f64_le();
        match kind {
            0 => store
                .attach(aid, AttachmentTarget::tuple(tid))
                .map_err(|e| SnapshotError::Corrupt(e.to_string()))?,
            1 => store
                .attach_predicted(aid, tid, weight)
                .map_err(|e| SnapshotError::Corrupt(e.to_string()))?,
            t => return Err(SnapshotError::Corrupt(format!("edge kind tag {t}"))),
        }
    }
    if buf.remaining() < 8 {
        return Err(SnapshotError::Truncated("cell count"));
    }
    let cells = buf.get_u64_le();
    if cells > (buf.remaining() / 24) as u64 {
        return Err(SnapshotError::Corrupt(format!("implausible cell count {cells}")));
    }
    for _ in 0..cells {
        if buf.remaining() < 8 {
            return Err(SnapshotError::Truncated("cell annotation"));
        }
        let aid = AnnotationId(buf.get_u64_le());
        let tid = get_tuple_id(&mut buf)?;
        if buf.remaining() < 4 {
            return Err(SnapshotError::Truncated("cell column"));
        }
        let cid = ColumnId(buf.get_u32_le());
        store
            .restore_cell_column(aid, tid, cid)
            .map_err(|e| SnapshotError::Corrupt(e.to_string()))?;
    }
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::schema::TableId;

    fn t(row: u64) -> TupleId {
        TupleId::new(TableId(0), row)
    }

    fn sample() -> AnnotationStore {
        let mut s = AnnotationStore::new();
        let a = s.add_annotation(Annotation::new("heat-shock note").by("Bob").of_kind("comment"));
        let b = s.add_annotation(Annotation::new("plain"));
        s.attach(a, AttachmentTarget::tuple(t(1))).unwrap();
        s.attach(a, AttachmentTarget::cell(t(2), ColumnId(3))).unwrap();
        s.attach(b, AttachmentTarget::tuple(t(1))).unwrap();
        s.attach_predicted(b, t(5), 0.62).unwrap();
        s
    }

    #[test]
    fn roundtrip_preserves_annotations_and_edges() {
        let original = sample();
        let restored = load(&save(&original)).unwrap();
        assert_eq!(restored.annotation_count(), original.annotation_count());
        for ((_, x), (_, y)) in original.iter_annotations().zip(restored.iter_annotations()) {
            assert_eq!(x, y);
        }
        assert_eq!(restored.true_edge_set(), original.true_edge_set());
        assert_eq!(restored.all_edge_set(), original.all_edge_set());
        // Predicted weight survives.
        let e = restored.edge(AnnotationId(1), t(5)).unwrap();
        assert_eq!(e.kind, EdgeKind::Predicted);
        assert!((e.weight - 0.62).abs() < 1e-12);
        // Cell refinement survives.
        assert_eq!(restored.cell_column(AnnotationId(0), t(2)), Some(ColumnId(3)));
        // Both directions of the true-edge index hold the same sets
        // (restore order is canonical, not insertion order).
        let sorted = |mut v: Vec<AnnotationId>| {
            v.sort();
            v
        };
        assert_eq!(restored.focal(AnnotationId(0)), original.focal(AnnotationId(0)));
        assert_eq!(sorted(restored.annotations_of(t(1))), sorted(original.annotations_of(t(1))));
    }

    #[test]
    fn empty_store_roundtrips() {
        let restored = load(&save(&AnnotationStore::new())).unwrap();
        assert_eq!(restored.annotation_count(), 0);
        assert_eq!(restored.all_edge_set().len(), 0);
    }

    #[test]
    fn bad_input_rejected() {
        assert_eq!(load(b"nope").unwrap_err(), SnapshotError::BadMagic);
        let good = save(&sample());
        for cut in [8usize, 12, 20, good.len() - 1] {
            assert!(load(&good[..cut]).is_err(), "prefix of {cut} must fail");
        }
    }

    #[test]
    fn dangling_edge_rejected() {
        // Hand-craft a snapshot whose edge references annotation 7 of 1.
        let mut store = AnnotationStore::new();
        store.add_annotation(Annotation::new("x"));
        let mut bytes = save(&store).to_vec();
        // Append an edge section is non-trivial; instead corrupt by
        // building a store, saving, then bumping the edge's annotation id.
        let mut s2 = AnnotationStore::new();
        let a = s2.add_annotation(Annotation::new("x"));
        s2.attach(a, AttachmentTarget::tuple(t(1))).unwrap();
        let bytes2 = save(&s2).to_vec();
        // The edge annotation id (u64 zero) sits right after the edge
        // count; flip it to 7.
        let needle = 7u64.to_le_bytes();
        let mut corrupted = bytes2.clone();
        // Find the edge record: it is the 8 bytes after the edge count
        // field. Locate edge count by structure: magic(8) + count(8) +
        // annotation ("x": 4+1 text, 1 author, 1 kind) = 23, then edge
        // count at 23..31, edge aid at 31..39.
        corrupted[31..39].copy_from_slice(&needle);
        assert!(matches!(load(&corrupted), Err(SnapshotError::Corrupt(_))));
        let _ = bytes.pop();
    }
}
