//! Offline stand-in for the `criterion` benchmark harness. Implements
//! the subset this workspace's benches use — `criterion_group!` /
//! `criterion_main!`, `Criterion::{bench_function, benchmark_group}`,
//! `BenchmarkGroup::{throughput, bench_function, finish}`, `Bencher::iter`
//! and `black_box` — with a deliberately small sample budget so a full
//! bench run stays quick. No plots or baselines: each benchmark warms up
//! once, runs a handful of timed batches, and prints the best and the
//! median of the batches' mean times per iteration (plus throughput, from
//! the best, when declared). The best is the least disturbed run; the
//! median says how typical it was.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How long each benchmark aims to measure, total.
const TARGET_MEASURE: Duration = Duration::from_millis(200);
const BATCHES: u32 = 5;

#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    Bytes(u64),
    Elements(u64),
}

#[derive(Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(id, None, &mut f);
        self
    }

    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            throughput: None,
            _parent: self,
        }
    }
}

pub struct BenchmarkGroup<'a> {
    name: String,
    throughput: Option<Throughput>,
    _parent: &'a mut Criterion,
}

impl<'a> BenchmarkGroup<'a> {
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id);
        run_one(&full, self.throughput, &mut f);
        self
    }

    pub fn finish(self) {}
}

pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

fn run_one<F: FnMut(&mut Bencher)>(id: &str, throughput: Option<Throughput>, f: &mut F) {
    // Warm-up single iteration, also calibrates the batch size.
    let mut b = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    f(&mut b);
    let per_iter = b.elapsed.max(Duration::from_nanos(1));
    let per_batch = TARGET_MEASURE / BATCHES;
    let iters = (per_batch.as_nanos() / per_iter.as_nanos()).clamp(1, 1_000_000) as u64;

    let means: Vec<Duration> = (0..BATCHES)
        .map(|_| {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            b.elapsed / (iters as u32)
        })
        .collect();
    let (best, median) = best_and_median(means);

    let times = format!("{best:>12.3?}/iter  median {median:>12.3?}");
    match throughput {
        Some(Throughput::Bytes(n)) => {
            let gbps = n as f64 / best.as_secs_f64() / 1e9;
            println!("{id:<48} {times}  {gbps:>8.3} GB/s");
        }
        Some(Throughput::Elements(n)) => {
            let meps = n as f64 / best.as_secs_f64() / 1e6;
            println!("{id:<48} {times}  {meps:>8.3} Melem/s");
        }
        None => println!("{id:<48} {times}"),
    }
}

/// The smallest and the median of the batch means (the upper median for
/// an even count).
fn best_and_median(mut means: Vec<Duration>) -> (Duration, Duration) {
    means.sort_unstable();
    (means[0], means[means.len() / 2])
}

#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_closure() {
        let mut c = Criterion::default();
        let mut ran = 0u64;
        c.bench_function("smoke", |b| b.iter(|| ran += 1));
        assert!(ran > 0);
    }

    #[test]
    fn best_and_median_of_batches() {
        let ms = Duration::from_millis;
        assert_eq!(
            best_and_median(vec![ms(5), ms(1), ms(9), ms(3), ms(4)]),
            (ms(1), ms(4))
        );
        assert_eq!(best_and_median(vec![ms(2)]), (ms(2), ms(2)));
    }
}
