//! The ITU-T G.114 one-way delay limit.
//!
//! G.114 recommends 150 ms as the upper limit of one-way mouth-to-ear
//! delay for most interactive applications; the ASAP paper derives from it
//! the 300 ms RTT threshold that defines a *quality path*.

/// G.114 upper limit of one-way mouth-to-ear delay for interactive
/// speech, in milliseconds.
pub const ONE_WAY_LIMIT_MS: f64 = 150.0;

/// The RTT threshold for a *quality path* derived from the G.114 one-way
/// limit (paper §6.2: "latT can be set close to 300 ms, since the one-way
/// delay upper limit of a path is 150 ms").
pub const RTT_LIMIT_MS: f64 = 2.0 * ONE_WAY_LIMIT_MS;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rtt_limit_is_twice_one_way() {
        assert_eq!(RTT_LIMIT_MS, 300.0);
    }
}
