//! Round-trip-time estimation (RFC 6298 with the paper's modifications).
//!
//! SSP uses the TCP SRTT/RTTVAR algorithm with three changes (paper §2.2):
//!
//! 1. Every datagram carries a unique sequence number, so samples are never
//!    ambiguous between retransmissions (no Karn's problem).
//! 2. The timestamp echo is adjusted by the receiver's holding time, so
//!    delayed acks do not inflate samples.
//! 3. The lower bound on the retransmission timeout is **50 ms** rather
//!    than one second — SSH over TCP "generally cannot detect a dropped
//!    keystroke in less than a second."
//!
//! and one rule Mosh's receiver adds beside them: a sample of
//! [`MAX_RTT_SAMPLE`] (5 s) or more is dropped, not fed to the estimator
//! (Mosh's comment: "e.g. server was Ctrl-Zed"). The 16-bit echo makes
//! this guard load-bearing on a fast path too: two millisecond clocks
//! can put an echo 1 ms "in the future", and that −1 ms sample wraps to
//! 65 535 ms. [`crate::datagram::DatagramLayer::accept`] applies it.

use crate::Millis;
use mosh_wire::{put_bool, put_varint, Reader};

/// Minimum retransmission timeout (the paper's headline change from TCP).
pub const MIN_RTO: Millis = 50;
/// Maximum retransmission timeout (Mosh clamps at one second).
pub const MAX_RTO: Millis = 1000;
/// RTT samples this large or larger are discarded, as Mosh's receiver
/// discards them: a stalled peer, or a wrapped 16-bit echo.
pub const MAX_RTT_SAMPLE: u16 = 5000;

/// SRTT/RTTVAR estimator state.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    srtt: f64,
    rttvar: f64,
    /// No sample yet: the first one initializes per RFC 6298 §2.2.
    have_sample: bool,
}

impl Default for RttEstimator {
    fn default() -> Self {
        Self::new()
    }
}

impl RttEstimator {
    /// Creates an estimator with Mosh's initial guess (1 s SRTT, 500 ms
    /// variation) so early retransmissions are conservative.
    pub fn new() -> Self {
        RttEstimator {
            srtt: 1000.0,
            rttvar: 500.0,
            have_sample: false,
        }
    }

    /// Appends the estimate for a session snapshot, so a restored sender
    /// keeps its tuned retransmission behavior instead of regressing to
    /// the 1 s guess: both values as IEEE-754 bit patterns, then the flag.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_varint(out, self.srtt.to_bits());
        put_varint(out, self.rttvar.to_bits());
        put_bool(out, self.have_sample);
    }

    /// Reads an estimator written by [`RttEstimator::encode_into`]. `None`
    /// for values no run of [`RttEstimator::observe`] can produce
    /// (negative, infinite, NaN).
    pub fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let srtt = f64::from_bits(r.varint()?);
        let rttvar = f64::from_bits(r.varint()?);
        let have_sample = r.bool()?;
        let sane = |v: f64| v.is_finite() && v >= 0.0;
        (sane(srtt) && sane(rttvar)).then_some(RttEstimator {
            srtt,
            rttvar,
            have_sample,
        })
    }

    /// Feeds one RTT sample in milliseconds.
    pub fn observe(&mut self, sample_ms: f64) {
        let r = sample_ms.max(0.0);
        if !self.have_sample {
            // RFC 6298 (2.2): SRTT <- R, RTTVAR <- R/2.
            self.srtt = r;
            self.rttvar = r / 2.0;
            self.have_sample = true;
        } else {
            // RFC 6298 (2.3): RTTVAR first, then SRTT (alpha=1/8, beta=1/4).
            self.rttvar = 0.75 * self.rttvar + 0.25 * (self.srtt - r).abs();
            self.srtt = 0.875 * self.srtt + 0.125 * r;
        }
    }

    /// The smoothed round-trip time estimate in milliseconds.
    pub fn srtt(&self) -> f64 {
        self.srtt
    }

    /// The RTT variation estimate in milliseconds.
    pub fn rttvar(&self) -> f64 {
        self.rttvar
    }

    /// True once at least one sample has arrived.
    pub fn has_sample(&self) -> bool {
        self.have_sample
    }

    /// The retransmission timeout: `SRTT + 4·RTTVAR`, clamped to
    /// `[50 ms, 1 s]`.
    pub fn rto(&self) -> Millis {
        let raw = self.srtt + 4.0 * self.rttvar;
        (raw.ceil() as Millis).clamp(MIN_RTO, MAX_RTO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_rto_is_conservative() {
        let e = RttEstimator::new();
        assert_eq!(e.rto(), MAX_RTO);
        assert!(!e.has_sample());
    }

    #[test]
    fn first_sample_initializes() {
        let mut e = RttEstimator::new();
        e.observe(100.0);
        assert_eq!(e.srtt(), 100.0);
        assert_eq!(e.rttvar(), 50.0);
        assert_eq!(e.rto(), 300);
    }

    #[test]
    fn smoothing_follows_rfc6298() {
        let mut e = RttEstimator::new();
        e.observe(100.0);
        e.observe(200.0);
        // RTTVAR = 0.75*50 + 0.25*|100-200| = 62.5; SRTT = 0.875*100+0.125*200 = 112.5.
        assert!((e.rttvar() - 62.5).abs() < 1e-9);
        assert!((e.srtt() - 112.5).abs() < 1e-9);
    }

    #[test]
    fn steady_samples_converge() {
        let mut e = RttEstimator::new();
        for _ in 0..200 {
            e.observe(80.0);
        }
        assert!((e.srtt() - 80.0).abs() < 1.0);
        assert!(e.rttvar() < 1.0);
        assert!(e.rto() >= MIN_RTO);
    }

    #[test]
    fn rto_floor_is_50ms_not_one_second() {
        // The paper's change #3: a fast LAN yields a 50 ms floor, letting
        // SSP detect a dropped keystroke twenty times faster than TCP.
        let mut e = RttEstimator::new();
        for _ in 0..100 {
            e.observe(2.0);
        }
        assert_eq!(e.rto(), MIN_RTO);
    }

    #[test]
    fn rto_cap_is_one_second() {
        let mut e = RttEstimator::new();
        for _ in 0..10 {
            e.observe(5000.0);
        }
        assert_eq!(e.rto(), MAX_RTO);
    }

    #[test]
    fn jittery_path_raises_rto_via_rttvar() {
        let mut steady = RttEstimator::new();
        let mut jittery = RttEstimator::new();
        for i in 0..100 {
            steady.observe(100.0);
            jittery.observe(if i % 2 == 0 { 50.0 } else { 150.0 });
        }
        assert!(jittery.rto() > steady.rto());
    }

    #[test]
    fn snapshot_round_trips_and_rejects_impossible_estimates() {
        let mut e = RttEstimator::new();
        e.observe(100.0);
        e.observe(37.0);
        let mut buf = Vec::new();
        e.encode_into(&mut buf);
        let back = RttEstimator::decode(&mut Reader::new(&buf)).expect("decodes");
        assert_eq!(
            (back.srtt(), back.rttvar(), back.has_sample()),
            (e.srtt(), e.rttvar(), true)
        );
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            buf.clear();
            put_varint(&mut buf, bad.to_bits());
            put_varint(&mut buf, 5.0f64.to_bits());
            put_bool(&mut buf, true);
            assert!(RttEstimator::decode(&mut Reader::new(&buf)).is_none());
        }
    }

    #[test]
    fn negative_samples_are_clamped() {
        let mut e = RttEstimator::new();
        e.observe(-5.0);
        assert_eq!(e.srtt(), 0.0);
        assert_eq!(e.rto(), MIN_RTO);
    }
}
