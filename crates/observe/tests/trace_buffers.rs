//! Trace buffers of exited threads: each thread's remaining events are
//! written out when it exits, and its buffer leaves the registry. Runs
//! in a binary of its own because tracing state is process-global.

#![cfg(feature = "enabled")]

const THREADS: usize = 64;

#[test]
fn exited_threads_release_their_trace_buffers() {
    let dir =
        std::env::temp_dir().join(format!("udm_observe_trace_buffers_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.jsonl");
    udm_observe::init_tracing(&path).unwrap();
    let before = udm_observe::trace_buffer_count();

    // One after another: each thread records one span (well below the
    // flush watermark) and exits before the next starts.
    for _ in 0..THREADS {
        std::thread::spawn(|| {
            let _span = udm_observe::span!("exiting_worker");
        })
        .join()
        .unwrap();
        assert_eq!(udm_observe::trace_buffer_count(), before);
    }

    udm_observe::flush_tracing();
    let text = std::fs::read_to_string(&path).unwrap();
    let events = text
        .lines()
        .filter(|l| l.contains("\"path\":\"exiting_worker\""))
        .count();
    assert_eq!(events, THREADS, "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}
