//! Figure 4 bench: cost of the SMP `send` primitive over message size.
//!
//! The primitive's cost is dominated by the copy into the mailbox FIFO
//! (paper §4.4: "the time spent for sending a message increases almost
//! linearly with the size of the message"). This bench measures the
//! mailbox push (with the copy) + pop cycle per message size; the
//! `repro -- figure4` harness measures the same through a full
//! deployed application.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use embera::runtime::Fifo;
use embera::Message;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure4_send_smp");
    for kb in embera_bench::FIGURE4_SIZES_KB {
        let size = (kb * 1024) as usize;
        let payload = Bytes::from(vec![0xA5u8; size]);
        let mailbox = Fifo::new(0);
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(kb), &kb, |b, _| {
            b.iter(|| {
                // The paper's send copies the payload into the FIFO.
                let copied = Bytes::from(payload.as_ref().to_vec());
                mailbox.push(Message::Data(copied));
                std::hint::black_box(mailbox.try_pop());
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
