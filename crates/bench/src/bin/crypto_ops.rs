//! Crypto hot-path throughput: AES-OCB seal/open, cross-packet batching,
//! and the hub demux.
//!
//! Every byte SSP moves crosses AES-OCB exactly once (paper §2.2 — and,
//! since the decrypt-once receive pipeline, *exactly* once even through
//! the multi-session hub's authentication demux). This bench measures
//! that hot path at the three datagram sizes that matter — a keystroke
//! (16 B), a typical terminal frame diff (120 B), and an MTU-sized
//! fragment (1400 B) — in two shapes:
//!
//! * **single-stream**: one packet per `seal_into`/`open_into` call, the
//!   shape a lone session produces — per-packet offset chains serialize
//!   the AES calls, so this is latency-bound;
//! * **batched**: whole batches per `seal_many_into`/`open_many_into`
//!   call at batch sizes 1/8/64, the shape the distributor hands a shard
//!   — blocks from *different* packets are independent, so they
//!   interleave across AES-NI pipelines (or bitslice lanes) and the same
//!   bytes run throughput-bound.
//!
//! Two software tiers are measured against hardware: the bitsliced
//! **constant-time** fallback that production uses when AES-NI is absent
//! (`aes::ct` — no secret-indexed table loads), and the byte-oriented
//! `aes::baseline` correctness oracle. The bench also *verifies* the
//! constant-time tier against the oracle on deterministic KATs every
//! run — a wrong-but-fast fallback fails the bin, not just CI.
//!
//! End-to-end, it measures opens/sec through a demux-shaped receive
//! path: N sessions behind one address, winner probed first (warm
//! routing hints), every datagram consumed via `Transport::open` +
//! `recv_opened`.
//!
//! Results land in `BENCH_crypto.json` so the perf trajectory records
//! crypto throughput run over run. Wall-clock numbers vary by machine;
//! the *ratios* are what the gates enforce: seal/open speedup over the
//! baseline oracle at 1400 B, and batched open ≥ single-stream open
//! (≥ 1.5× at 1400 B on AES-NI hosts — cross-packet batching is the
//! point of the seam, and a regression that quietly serializes it again
//! fails this bin).

use mosh_crypto::aes::{baseline, ct, BlockCipher};
use mosh_crypto::ocb::{Ocb, OpenJob, SealJob, TAG_LEN};
use mosh_crypto::session::Direction;
use mosh_crypto::Base64Key;
use mosh_ssp::state::BlobState;
use mosh_ssp::transport::Transport;
use std::time::Instant;

/// Datagram payload sizes: keystroke, frame diff, MTU-sized fragment.
const SIZES: [usize; 3] = [16, 120, 1400];

/// Cross-packet batch shapes: a lone packet through the batch seam (its
/// fixed overhead), a typical distributor hand-off, a full feed batch.
const BATCHES: [usize; 3] = [1, 8, 64];

/// Sessions behind one address in the demux measurement.
const DEMUX_SESSIONS: usize = 8;

/// Runs `op` repeatedly for at least `window_ms`, returning iterations
/// per second.
fn rate(window_ms: u64, mut op: impl FnMut()) -> f64 {
    // Warm up (first calls fault in tables and buffers).
    for _ in 0..3 {
        op();
    }
    let start = Instant::now();
    let mut iters = 0u64;
    loop {
        // Batch between clock reads so timing overhead stays negligible.
        for _ in 0..32 {
            op();
        }
        iters += 32;
        let elapsed = start.elapsed();
        if elapsed.as_millis() as u64 >= window_ms {
            return iters as f64 / elapsed.as_secs_f64();
        }
    }
}

fn mbps(bytes: usize, per_sec: f64) -> f64 {
    bytes as f64 * per_sec / 1e6
}

struct OcbRates {
    seal_mbps: Vec<(usize, f64)>,
    open_mbps: Vec<(usize, f64)>,
}

/// Single-stream seal/open throughput of one OCB instantiation over the
/// given sizes, through the allocation-free `_into` hot path with reused
/// buffers.
fn ocb_rates<C: BlockCipher>(ocb: &Ocb<C>, sizes: &[usize], window_ms: u64) -> OcbRates {
    let nonce = [7u8; 12];
    let mut seal_mbps = Vec::new();
    let mut open_mbps = Vec::new();
    for &size in sizes {
        let payload = vec![0xa5u8; size];
        let mut out = Vec::with_capacity(size + TAG_LEN);
        let per_sec = rate(window_ms, || {
            out.clear();
            ocb.seal_into(&nonce, &[], &payload, &mut out);
        });
        seal_mbps.push((size, mbps(size, per_sec)));

        let sealed = ocb.seal(&nonce, &[], &payload);
        let mut plain = Vec::with_capacity(size);
        let per_sec = rate(window_ms, || {
            plain.clear();
            ocb.open_into(&nonce, &[], &sealed, &mut plain)
                .expect("authentic");
        });
        open_mbps.push((size, mbps(size, per_sec)));
    }
    OcbRates {
        seal_mbps,
        open_mbps,
    }
}

/// One cell of the batch grid: MB/s through `seal_many_into` /
/// `open_many_into` with `batch` distinct packets (distinct nonces, as on
/// the wire) per call. Total bytes per call = `batch * size`.
struct BatchCell {
    batch: usize,
    size: usize,
    seal_mbps: f64,
    open_mbps: f64,
}

/// The cross-packet batching grid for one OCB instantiation.
fn ocb_batch_rates<C: BlockCipher>(
    ocb: &Ocb<C>,
    sizes: &[usize],
    batches: &[usize],
    window_ms: u64,
) -> Vec<BatchCell> {
    let mut cells = Vec::new();
    for &batch in batches {
        for &size in sizes {
            // Distinct payloads and nonces per packet, like real traffic.
            let payloads: Vec<Vec<u8>> = (0..batch)
                .map(|k| vec![(k as u8).wrapping_mul(37) ^ 0x5c; size])
                .collect();
            let nonces: Vec<[u8; 12]> = (0..batch)
                .map(|k| {
                    let mut n = [0u8; 12];
                    n[4..].copy_from_slice(&(k as u64).to_be_bytes());
                    n
                })
                .collect();
            let jobs: Vec<SealJob> = (0..batch)
                .map(|k| SealJob {
                    nonce: &nonces[k],
                    ad: &[],
                    plaintext: &payloads[k],
                })
                .collect();
            let mut outs: Vec<Vec<u8>> = (0..batch)
                .map(|_| Vec::with_capacity(size + TAG_LEN))
                .collect();
            let per_call = rate(window_ms, || {
                for out in outs.iter_mut() {
                    out.clear();
                }
                ocb.seal_many_into(&jobs, &mut outs);
            });
            let seal_mbps = mbps(batch * size, per_call);

            let sealed: Vec<Vec<u8>> = (0..batch)
                .map(|k| ocb.seal(&nonces[k], &[], &payloads[k]))
                .collect();
            let open_jobs: Vec<OpenJob> = (0..batch)
                .map(|k| OpenJob {
                    nonce: &nonces[k],
                    ad: &[],
                    sealed: &sealed[k],
                })
                .collect();
            let mut plains: Vec<Vec<u8>> = (0..batch).map(|_| Vec::with_capacity(size)).collect();
            let per_call = rate(window_ms, || {
                for plain in plains.iter_mut() {
                    plain.clear();
                }
                for verdict in ocb.open_many_into(&open_jobs, &mut plains) {
                    verdict.expect("authentic");
                }
            });
            cells.push(BatchCell {
                batch,
                size,
                seal_mbps,
                open_mbps: mbps(batch * size, per_call),
            });
        }
    }
    cells
}

/// Verifies the constant-time bitsliced tier against the byte-oriented
/// `aes::baseline` oracle on deterministic pseudorandom KATs — single
/// blocks, odd-length batches (exercising partial bitslice groups), and
/// encrypt/decrypt round trips. Returns false on any mismatch.
fn ct_matches_baseline() -> bool {
    let mut x: u64 = 0x243f_6a88_85a3_08d3;
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x
    };
    let mut fill = |buf: &mut [u8]| {
        for chunk in buf.chunks_mut(8) {
            let w = next().to_le_bytes();
            chunk.copy_from_slice(&w[..chunk.len()]);
        }
    };
    for _ in 0..16 {
        let mut key = [0u8; 16];
        fill(&mut key);
        let ct_tier = <ct::Aes128 as BlockCipher>::new(&key);
        let oracle = baseline::Aes128::new(&key);

        // 13 blocks: 3 full bitslice groups of 4 plus a ragged tail.
        let mut blocks = [[0u8; 16]; 13];
        for b in blocks.iter_mut() {
            fill(b);
        }
        let plain = blocks;
        let mut expected = blocks;
        for b in expected.iter_mut() {
            *b = oracle.encrypt_block(b);
        }
        ct_tier.encrypt_blocks(&mut blocks);
        if blocks != expected {
            return false;
        }
        for (b, p) in blocks.iter().zip(plain.iter()) {
            if ct_tier.decrypt_block(b) != *p {
                return false;
            }
        }
        ct_tier.decrypt_blocks(&mut blocks);
        if blocks != plain {
            return false;
        }
    }
    true
}

/// Opens/sec through a demux-shaped receive path: `DEMUX_SESSIONS` server
/// transports behind one notional address; each datagram is opened by its
/// owner and consumed as a token — `Transport::open` + `recv_opened`,
/// the hub's decrypt-once pipeline in its warm-hint steady state: the
/// routing hint puts the owner first, so the authenticating probe is the
/// *only* OCB pass and no losing probes run (exactly the hub's common
/// case; a cold hint adds one failed probe per unknown source, a
/// once-per-roam event, not a steady-state cost).
fn demux_opens_per_sec(window_ms: u64) -> f64 {
    let init = BlobState(b"init".to_vec());
    let mut servers: Vec<Transport<BlobState, BlobState>> = Vec::new();
    let mut wires: Vec<(usize, Vec<u8>)> = Vec::new();
    for s in 0..DEMUX_SESSIONS {
        let key = Base64Key::from_bytes([s as u8 + 1; 16]);
        let mut client: Transport<BlobState, BlobState> =
            Transport::new(key.clone(), Direction::ToServer, init.clone(), init.clone());
        servers.push(Transport::new(
            key,
            Direction::ToClient,
            init.clone(),
            init.clone(),
        ));
        // A spread of real instruction datagrams from this session.
        let mut now = 0u64;
        while wires.iter().filter(|(j, _)| *j == s).count() < 16 {
            client.set_current_state(BlobState(vec![now as u8; 120]), now);
            now += 40;
            for w in client.tick(now) {
                wires.push((s, w));
            }
        }
    }

    let mut idx = 0usize;
    let mut now = 1u64;
    rate(window_ms, || {
        let (owner, wire) = &wires[idx % wires.len()];
        idx += 1;
        now += 1;
        let opened = servers[*owner].open(wire).expect("authentic");
        let _ = servers[*owner].recv_opened(now, opened);
    })
}

fn main() {
    let quick = mosh_bench::quick();
    let window_ms: u64 = if quick { 40 } else { 300 };

    println!("=== crypto_ops: AES-OCB single-stream + batched throughput, demux opens/sec ===");
    println!("  (auto backend vs constant-time tier vs byte-oriented oracle; {window_ms} ms per measurement)\n");

    // Correctness first: the constant-time fallback must agree with the
    // oracle before any of its throughput numbers mean anything.
    let ct_ok = ct_matches_baseline();
    println!(
        "  constant-time tier vs baseline oracle KATs: {}",
        if ct_ok { "match" } else { "MISMATCH" }
    );

    let key = [0x5au8; 16];
    let fast = Ocb::new(&key);
    let ct_ocb: Ocb<ct::Aes128> = Ocb::with_cipher(&key);
    let slow: Ocb<baseline::Aes128> = Ocb::with_cipher(&key);

    let fast_rates = ocb_rates(&fast, &SIZES, window_ms);
    // The software tiers only gate the 1400 B ratios; smaller sizes
    // would just slow the run down.
    let ct_rates = ocb_rates(&ct_ocb, &[1400], window_ms);
    let slow_rates = ocb_rates(&slow, &[1400], window_ms);

    println!("\n  single-stream (auto backend):");
    println!(
        "  {:>8}  {:>14}  {:>14}",
        "size B", "seal MB/s", "open MB/s"
    );
    for (i, size) in SIZES.iter().enumerate() {
        println!(
            "  {:>8}  {:>14.1}  {:>14.1}",
            size, fast_rates.seal_mbps[i].1, fast_rates.open_mbps[i].1
        );
    }

    let batch_cells = ocb_batch_rates(&fast, &SIZES, &BATCHES, window_ms);
    println!("\n  batched (auto backend, `seal_many_into`/`open_many_into`):");
    println!(
        "  {:>8}  {:>8}  {:>14}  {:>14}",
        "batch", "size B", "seal MB/s", "open MB/s"
    );
    for c in &batch_cells {
        println!(
            "  {:>8}  {:>8}  {:>14.1}  {:>14.1}",
            c.batch, c.size, c.seal_mbps, c.open_mbps
        );
    }

    let (baseline_seal, baseline_open) = (slow_rates.seal_mbps[0].1, slow_rates.open_mbps[0].1);
    let (ct_seal, ct_open) = (ct_rates.seal_mbps[0].1, ct_rates.open_mbps[0].1);
    let seal_speedup = fast_rates.seal_mbps[2].1 / baseline_seal;
    let open_speedup = fast_rates.open_mbps[2].1 / baseline_open;
    let single_open_1400 = fast_rates.open_mbps[2].1;
    let batched_open_1400 = batch_cells
        .iter()
        .find(|c| c.batch == 64 && c.size == 1400)
        .map(|c| c.open_mbps)
        .unwrap_or(0.0);
    let batch_vs_single = batched_open_1400 / single_open_1400;
    let hardware = mosh_crypto::aes::Aes128::new(&key).hardware_accelerated();

    // The gates are enforced, not just printed: a regression that quietly
    // lands the fast path back at oracle speed — or serializes the
    // cross-packet batch seam back into the single-stream path — fails
    // this bin (and CI runs it). Without hardware AES the bitsliced
    // constant-time tier still clears the oracle comfortably on open (the
    // byte-oriented gmul decrypt was the disaster) but its single-stream
    // seal only ~matches it (one block per 4-lane transpose group), so
    // the seal gate relaxes there, and batching gains come from lane
    // occupancy rather than pipeline interleave — batched open must still
    // be no slower than single-stream anywhere, and ≥ 1.5× on AES-NI.
    let (seal_gate, open_gate) = if hardware { (5.0, 5.0) } else { (1.0, 2.0) };
    let batch_gate = if hardware { 1.5 } else { 1.0 };
    println!(
        "\n  backend: {}",
        if hardware {
            "hardware AES (AES-NI)"
        } else {
            "bitsliced constant-time software"
        }
    );
    println!(
        "  oracle (byte-oriented AES) at 1400 B: seal {baseline_seal:.1} MB/s, \
         open {baseline_open:.1} MB/s"
    );
    println!(
        "  constant-time tier at 1400 B: seal {ct_seal:.1} MB/s, open {ct_open:.1} MB/s \
         ({:.1}x / {:.1}x oracle)",
        ct_seal / baseline_seal,
        ct_open / baseline_open
    );
    println!(
        "  speedup at 1400 B: seal {seal_speedup:.1}x (gate: >= {seal_gate}x), \
         open {open_speedup:.1}x (gate: >= {open_gate}x)"
    );
    println!(
        "  batched open vs single-stream at 1400 B (batch 64): {batch_vs_single:.2}x \
         (gate: >= {batch_gate}x)"
    );

    let demux = demux_opens_per_sec(window_ms);
    println!(
        "\n  decrypt-once demux, warm hints ({DEMUX_SESSIONS} sessions behind one \
         address, owner probed first): {demux:.0} opens/sec"
    );

    // The perf-trajectory artifact.
    let mut json = String::from("{\n  \"bench\": \"crypto_ops\",\n");
    json.push_str(&format!("  \"window_ms\": {window_ms},\n"));
    for (name, rates) in [
        ("seal_mbps", &fast_rates.seal_mbps),
        ("open_mbps", &fast_rates.open_mbps),
    ] {
        json.push_str(&format!("  \"{name}\": {{"));
        for (i, (size, r)) in rates.iter().enumerate() {
            json.push_str(&format!(
                "\"{size}\": {r:.3}{}",
                if i + 1 < rates.len() { ", " } else { "" }
            ));
        }
        json.push_str("},\n");
    }
    for (name, pick) in [
        (
            "batch_seal_mbps",
            &(|c: &BatchCell| c.seal_mbps) as &dyn Fn(&BatchCell) -> f64,
        ),
        ("batch_open_mbps", &|c: &BatchCell| c.open_mbps),
    ] {
        json.push_str(&format!("  \"{name}\": {{"));
        for (bi, &batch) in BATCHES.iter().enumerate() {
            json.push_str(&format!("\"{batch}\": {{"));
            let row: Vec<&BatchCell> = batch_cells.iter().filter(|c| c.batch == batch).collect();
            for (i, c) in row.iter().enumerate() {
                json.push_str(&format!(
                    "\"{}\": {:.3}{}",
                    c.size,
                    pick(c),
                    if i + 1 < row.len() { ", " } else { "" }
                ));
            }
            json.push_str(if bi + 1 < BATCHES.len() { "}, " } else { "}" });
        }
        json.push_str("},\n");
    }
    json.push_str(&format!(
        "  \"backend\": \"{}\",\n  \
         \"ct_matches_baseline\": {ct_ok},\n  \
         \"baseline_seal_mbps_1400\": {baseline_seal:.3},\n  \
         \"baseline_open_mbps_1400\": {baseline_open:.3},\n  \
         \"ct_seal_mbps_1400\": {ct_seal:.3},\n  \
         \"ct_open_mbps_1400\": {ct_open:.3},\n  \
         \"seal_speedup_1400\": {seal_speedup:.2},\n  \
         \"open_speedup_1400\": {open_speedup:.2},\n  \
         \"batch_open_vs_single_1400\": {batch_vs_single:.2},\n  \
         \"demux_sessions\": {DEMUX_SESSIONS},\n  \
         \"warm_demux_opens_per_sec\": {demux:.0}\n}}\n",
        if hardware { "aes-ni" } else { "ct-bitsliced" }
    ));
    match std::fs::write("BENCH_crypto.json", &json) {
        Ok(()) => println!("\nwrote BENCH_crypto.json"),
        Err(e) => println!("\ncould not write BENCH_crypto.json: {e}"),
    }

    let mut failed = false;
    if !ct_ok {
        println!("\nFAILED: constant-time AES tier disagrees with the baseline oracle");
        failed = true;
    }
    if seal_speedup < seal_gate || open_speedup < open_gate {
        println!(
            "\nFAILED: crypto hot path regressed below its speedup gate \
             (seal {seal_speedup:.1}x/{seal_gate}x, open {open_speedup:.1}x/{open_gate}x)"
        );
        failed = true;
    }
    if batch_vs_single < batch_gate {
        println!(
            "\nFAILED: batched open fell below single-stream open \
             ({batch_vs_single:.2}x, gate {batch_gate}x) — the cross-packet \
             batch seam is not paying for itself"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
