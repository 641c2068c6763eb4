//! Workspace-level property tests: invariants of the full Stage-1
//! pipeline over arbitrary annotation text on a real (tiny) dataset.

use nebula::nebula_core::{generate_queries, QueryGenConfig};
use nebula::prelude::*;
use proptest::prelude::*;

fn dataset() -> DatasetBundle {
    generate_dataset(&DatasetSpec::tiny(), 99)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Query generation never panics on arbitrary text and always emits
    /// normalized weights with the maximum at exactly 1.0.
    #[test]
    fn querygen_weights_normalized(text in ".{0,300}") {
        let bundle = dataset();
        let queries =
            generate_queries(&bundle.db, &bundle.meta, &text, &QueryGenConfig::default());
        if let Some(max) = queries.iter().map(|q| q.weight).max_by(f64::total_cmp) {
            prop_assert!((max - 1.0).abs() < 1e-9, "max weight normalizes to 1, got {max}");
        }
        for q in &queries {
            prop_assert!(q.weight > 0.0 && q.weight <= 1.0 + 1e-9);
            prop_assert!(!q.keywords.is_empty());
            prop_assert!(q.positions.len() == q.keywords.len());
            prop_assert!((1..=3).contains(&q.match_type));
        }
    }

    /// Dedup: no two generated queries share the same keyword multiset.
    #[test]
    fn querygen_no_duplicates(text in "(gene|protein|JW[0-9]{4}| |[a-z]{2,6}){0,40}") {
        let bundle = dataset();
        let queries =
            generate_queries(&bundle.db, &bundle.meta, &text, &QueryGenConfig::default());
        let mut keys: Vec<Vec<String>> = queries
            .iter()
            .map(|q| {
                let mut k: Vec<String> = q.keywords.iter().map(|w| w.to_lowercase()).collect();
                k.sort();
                k
            })
            .collect();
        let before = keys.len();
        keys.sort();
        keys.dedup();
        prop_assert_eq!(before, keys.len());
    }

    /// Tightening ε can only reduce the number of generated queries.
    #[test]
    fn epsilon_monotone(text in "(gene |JW[0-9]{4} |[a-z]{3,7} ){0,30}") {
        let bundle = dataset();
        let count = |eps: f64| {
            generate_queries(
                &bundle.db,
                &bundle.meta,
                &text,
                &QueryGenConfig { epsilon: eps, ..Default::default() },
            )
            .len()
        };
        let loose = count(0.4);
        let mid = count(0.6);
        let tight = count(0.8);
        prop_assert!(loose >= mid, "ε=0.4 ⊇ ε=0.6 ({loose} vs {mid})");
        prop_assert!(mid >= tight, "ε=0.6 ⊇ ε=0.8 ({mid} vs {tight})");
    }

    /// The shell rejects or executes arbitrary input without ever
    /// panicking, and stays usable afterwards.
    #[test]
    fn shell_never_panics(lines in proptest::collection::vec(".{0,80}", 1..6)) {
        let mut sh = nebula::Shell::with_dataset(&DatasetSpec::tiny(), 7);
        for line in &lines {
            let _ = sh.exec(line);
        }
        prop_assert!(sh.exec("TABLES").is_ok(), "shell still functional");
    }

    /// Shell SELECT grammar: any combination of valid clauses parses and
    /// executes.
    #[test]
    fn shell_select_grammar(
        limit in 1usize..50,
        with_where in any::<bool>(),
        with_order in any::<bool>(),
        desc in any::<bool>(),
    ) {
        let mut sh = nebula::Shell::with_dataset(&DatasetSpec::tiny(), 7);
        let mut cmd = String::from("SELECT gene COLUMNS gid,length");
        if with_where {
            cmd.push_str(" WHERE family = 'F1'");
        }
        if with_order {
            cmd.push_str(" ORDER BY length");
            cmd.push_str(if desc { " DESC" } else { " ASC" });
        }
        cmd.push_str(&format!(" LIMIT {limit}"));
        let out = sh.exec(&cmd).unwrap();
        prop_assert!(out.starts_with("gid | length"), "{out}");
        prop_assert!(out.lines().count() <= limit + 2);
    }

    /// Snapshot decoders are total over truncation: every proper prefix
    /// of a valid encoding returns `Err` — no panic, no partial state.
    #[test]
    fn snapshot_truncations_error_cleanly(cut_seed in 0usize..10_000, relational in any::<bool>()) {
        let bundle = dataset();
        if relational {
            let bytes = nebula::relstore::snapshot::save(&bundle.db);
            let cut = cut_seed % bytes.len();
            prop_assert!(nebula::relstore::snapshot::load(&bytes[..cut]).is_err(), "cut={cut}");
        } else {
            let bytes = nebula::annostore::snapshot::save(&bundle.annotations);
            let cut = cut_seed % bytes.len();
            prop_assert!(nebula::annostore::snapshot::load(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    /// Snapshot decoders never panic on bit-flipped encodings. A flip may
    /// land in string or float payload and still decode — the property is
    /// totality, not rejection — but length-carrying fields must fail
    /// cleanly rather than drive allocation or out-of-bounds reads.
    #[test]
    fn snapshot_bit_flips_never_panic(
        pos_seed in 0usize..100_000,
        bit in 0u32..8,
        relational in any::<bool>(),
    ) {
        let bundle = dataset();
        if relational {
            let mut bytes = nebula::relstore::snapshot::save(&bundle.db).to_vec();
            let pos = pos_seed % bytes.len();
            bytes[pos] ^= 1 << bit;
            let _ = nebula::relstore::snapshot::load(&bytes);
        } else {
            let mut bytes = nebula::annostore::snapshot::save(&bundle.annotations).to_vec();
            let pos = pos_seed % bytes.len();
            bytes[pos] ^= 1 << bit;
            let _ = nebula::annostore::snapshot::load(&bytes);
        }
    }

    /// The WAL reader is total over arbitrary bytes: it never panics, its
    /// valid/dropped accounting covers the buffer, and a garbage
    /// checkpoint image fails recovery cleanly.
    #[test]
    fn wal_reader_total_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let (records, tail) = nebula::nebula_durable::wal::read_wal(&bytes);
        prop_assert_eq!(records.len(), tail.valid_records);
        prop_assert!(tail.valid_bytes <= bytes.len());
        prop_assert_eq!(tail.valid_bytes + tail.dropped_bytes, bytes.len());
        if !bytes.is_empty() {
            prop_assert!(nebula::nebula_durable::recover_from_bytes(Some(&bytes), &[]).is_err());
        }
    }

    /// The full process_annotation pipeline never panics on hostile text
    /// and its routing partitions the candidates.
    #[test]
    fn process_annotation_total(text in ".{0,200}") {
        let mut bundle = dataset();
        let mut nebula = Nebula::new(NebulaConfig::default(), bundle.meta.clone());
        let focal = vec![bundle.gene_tuples[0]];
        let out = nebula
            .process_annotation(&bundle.db, &mut bundle.annotations, &Annotation::new(text), &focal)
            .unwrap();
        prop_assert_eq!(
            out.accepted.len() + out.pending.len() + out.rejected.len(),
            out.candidates.len()
        );
        for c in &out.candidates {
            prop_assert!(c.confidence > 0.0 && c.confidence <= 1.0);
            prop_assert!(!focal.contains(&c.tuple), "focal never re-predicted");
        }
    }

    /// The page-file header decoder is total over arbitrary page bytes:
    /// hostile images are rejected cleanly, a sealed legitimate header
    /// roundtrips, and reseal-after-tamper still trips the field checks.
    #[test]
    fn page_header_codec_total_on_hostile_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        page_count in any::<u32>(),
        watermark in any::<u64>(),
    ) {
        use nebula::nebula_pagestore::page;
        // Arbitrary prefix splatted over a zeroed page: decode must never
        // panic (the CRC gate rejects virtually everything).
        let mut hostile = [0u8; nebula::nebula_pagestore::PAGE_SIZE];
        hostile[..bytes.len()].copy_from_slice(&bytes);
        let _ = page::decode_header_page(&hostile);
        // A legitimate header roundtrips exactly.
        let good = page::encode_header_page(page_count, watermark);
        prop_assert_eq!(page::decode_header_page(&good).unwrap(), (page_count, watermark));
        // Resealing a tampered copy defeats the CRC but not the field
        // validation: a wrong magic byte still fails.
        let mut tampered = good.clone();
        tampered[page::HEADER_SIZE] ^= 0xFF;
        page::seal(&mut tampered);
        prop_assert!(page::decode_header_page(&tampered).is_err());
    }

    /// The slotted layout is total over arbitrary page bytes (reads,
    /// counts, and free-space accounting never panic) and on a real page
    /// every accepted insert reads back exactly, with `fits` and
    /// `free_bytes` agreeing on the next record.
    #[test]
    fn slotted_heap_total_and_roundtrips(
        garbage in proptest::collection::vec(any::<u8>(), 0..512),
        records in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..300), 1..24),
    ) {
        use nebula::nebula_pagestore::{slotted, PAGE_SIZE};
        // Hostile bytes: every read-only entry point is total.
        let mut hostile = [0u8; PAGE_SIZE];
        hostile[..garbage.len()].copy_from_slice(&garbage);
        let _ = slotted::slot_count(&hostile);
        let _ = slotted::free_bytes(&hostile);
        for slot in 0..slotted::slot_count(&hostile).min(64) {
            let _ = slotted::read(&hostile, slot);
        }
        // Real page: inserts roundtrip and the space accounting is exact.
        let mut page = [0u8; PAGE_SIZE];
        slotted::init(&mut page);
        let mut stored: Vec<(usize, Vec<u8>)> = Vec::new();
        for rec in &records {
            let fits = slotted::fits(&page, rec.len());
            prop_assert_eq!(
                fits,
                rec.len() <= slotted::free_bytes(&page),
                "fits() and free_bytes() must agree"
            );
            match slotted::insert(&mut page, rec) {
                Some(slot) => {
                    prop_assert!(fits, "insert succeeded where fits() said no");
                    stored.push((slot, rec.clone()));
                }
                None => prop_assert!(!fits, "insert failed where fits() said yes"),
            }
        }
        for (slot, rec) in &stored {
            prop_assert_eq!(slotted::read(&page, *slot), Some(rec.as_slice()));
        }
    }

    /// The delta-compressed posting-block codec roundtrips arbitrary
    /// postings exactly and is total over garbage bytes.
    #[test]
    fn posting_block_codec_roundtrips_and_rejects_garbage(
        rows in proptest::collection::vec((0u32..512, 0u32..128, any::<u64>()), 0..64),
        garbage in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        use nebula::relstore::storage::{decode_posting_block, encode_posting_block};
        use nebula::relstore::{ColumnId, Posting, TableId};
        let postings: Vec<Posting> = rows
            .iter()
            .map(|&(t, c, row)| Posting {
                table: TableId(t),
                column: ColumnId(c),
                tuple: TupleId::new(TableId(t), row),
            })
            .collect();
        let block = encode_posting_block(&postings);
        prop_assert_eq!(decode_posting_block(&block).unwrap(), postings);
        let _ = decode_posting_block(&garbage); // total: never panics
    }

    /// The opaque row codec roundtrips every value shape and fails
    /// cleanly (never panics) on truncations and garbage.
    #[test]
    fn row_codec_roundtrips_and_rejects_garbage(
        ints in proptest::collection::vec(any::<i64>(), 0..6),
        text in ".{0,40}",
        garbage in proptest::collection::vec(any::<u8>(), 0..96),
        arity in 0usize..8,
    ) {
        use nebula::relstore::storage::{decode_row, encode_row};
        let mut row: Vec<Value> = ints.iter().map(|&i| Value::Int(i)).collect();
        row.push(Value::text(text));
        row.push(Value::Null);
        let bytes = encode_row(&row);
        prop_assert_eq!(decode_row(&bytes, row.len()).unwrap(), row.clone());
        // Wrong arity and truncation fail cleanly.
        prop_assert!(decode_row(&bytes, row.len() + 1).is_err());
        if bytes.len() > 1 {
            let _ = decode_row(&bytes[..bytes.len() - 1], row.len());
        }
        let _ = decode_row(&garbage, arity); // total: never panics
    }

}
