//! Seeded input generation. Every input the library sees is derived from
//! the workload seed here, so one seed always gives the same inputs.

/// SplitMix64: a small, fast generator with good mixing, so consecutive
/// workload seeds give unrelated streams.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The formulas every monitor stream watches.
pub const WATCHED: [&str; 2] = ["B sees N0", "Env has Kab"];

/// A trace to stream into a monitor, with the response each line must
/// get: nothing for a directive, one verdict line per watched formula
/// for an event.
#[derive(Clone, Debug)]
pub struct MonitorStream {
    pub lines: Vec<String>,
    pub expected: Vec<Vec<String>>,
}

/// A keyed A/B exchange of `events` send/recv events: A sends B a fresh
/// nonce with the session key, B answers with a fresh nonce paired with
/// `N0`, and each send is received next. Nonce names other than `N0`
/// come from `rng`.
///
/// Expected verdicts: `B sees N0` turns true at the first event where B
/// receives a message carrying `N0` (both principals hold `Kab`, so B
/// can open it) and stays true; `Env has Kab` stays false, since the
/// key is never sent.
pub fn monitor_stream(rng: &mut Rng, events: usize) -> MonitorStream {
    let mut lines = vec![
        "run start 0".to_string(),
        "principal A keys Kab".to_string(),
        "principal B keys Kab".to_string(),
    ];
    let mut expected = vec![Vec::new(); lines.len()];
    let mut nonce = String::new();
    let mut b_sees_n0 = false;
    for i in 0..events {
        let line = match i % 4 {
            0 | 2 => {
                nonce = if i == 0 {
                    "N0".to_string()
                } else {
                    format!("Nx{:x}i{i}", rng.next_u64() & 0xffff_ffff)
                };
                if i % 4 == 0 {
                    format!("send A -> B : {{{nonce}, <<A <-Kab-> B>>}}Kab@A")
                } else {
                    format!("send B -> A : {{{nonce}, N0}}Kab@B")
                }
            }
            1 => {
                b_sees_n0 |= nonce == "N0";
                format!("recv B : {{{nonce}, <<A <-Kab-> B>>}}Kab@A")
            }
            _ => format!("recv A : {{{nonce}, N0}}Kab@B"),
        };
        let time = i + 1;
        expected.push(vec![
            format!("at (run 0, time {time}): {} = {b_sees_n0}", WATCHED[0]),
            format!("at (run 0, time {time}): {} = false", WATCHED[1]),
        ]);
        lines.push(line);
    }
    MonitorStream { lines, expected }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atl_core::monitor::Monitor;
    use atl_core::parallel::Pool;

    #[test]
    fn same_seed_same_stream_other_seed_other_names() {
        let a = monitor_stream(&mut Rng::new(3), 16);
        let b = monitor_stream(&mut Rng::new(3), 16);
        let c = monitor_stream(&mut Rng::new(4), 16);
        assert_eq!(a.lines, b.lines);
        assert_ne!(a.lines, c.lines);
        // Only the first send and its receive lead with `N0`.
        assert!(a.lines.iter().skip(5).all(|l| !l.contains("{N0,")));
    }

    #[test]
    fn expected_verdicts_flip_once_at_the_first_receive() {
        let s = monitor_stream(&mut Rng::new(1), 8);
        assert_eq!(s.lines.len(), s.expected.len());
        assert!(s.expected[..3].iter().all(Vec::is_empty));
        let sees: Vec<bool> = s.expected[3..]
            .iter()
            .map(|v| v[0].ends_with("= true"))
            .collect();
        assert_eq!(sees, [false, true, true, true, true, true, true, true]);
        assert!(s.expected[3..].iter().all(|v| v[1].ends_with("= false")));
        assert_eq!(s.expected[4][0], "at (run 0, time 2): B sees N0 = true");
    }

    #[test]
    fn the_monitor_agrees_with_the_generator() {
        let pool = Pool::new(1);
        for seed in [0, 9] {
            let s = monitor_stream(&mut Rng::new(seed), 12);
            let mut m =
                Monitor::new("gen", WATCHED.iter().map(|w| w.to_string())).expect("monitor");
            for (line, want) in s.lines.iter().zip(&s.expected) {
                assert_eq!(&m.feed_line(line, &pool).expect("line feeds"), want);
            }
        }
    }
}
