//! End-to-end loopback tests: server + clients over real TCP sockets.
//!
//! The themes are the tentpole's contract: streaming completions,
//! per-client backpressure, and failure isolation — one connection's
//! malformed frames or failing jobs never disturb another.

use bonsai_amt::{AmtConfig, SimEngineConfig};
use bonsai_net::{Client, Reply, Server, ServerConfig};
use bonsai_records::{Record, U32Rec};
use bonsai_rng::Rng;
use bonsai_runtime::RuntimeConfig;

fn test_config() -> ServerConfig {
    ServerConfig {
        runtime: RuntimeConfig {
            workers: 2,
            queue_depth: 8,
            ..RuntimeConfig::default()
        },
        engine: SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4),
        ..ServerConfig::default()
    }
}

fn spawn_server(config: ServerConfig) -> Server<U32Rec> {
    Server::bind("127.0.0.1:0", config).expect("bind loopback ephemeral port")
}

fn random_records(rng: &mut Rng, n: usize) -> Vec<U32Rec> {
    (0..n).map(|_| U32Rec::new(rng.next_u32())).collect()
}

/// What the engine contractually returns: sanitize, then sort.
fn expect_sorted(data: &[U32Rec]) -> Vec<U32Rec> {
    let mut expected: Vec<U32Rec> = data.iter().map(|r| r.sanitize()).collect();
    expected.sort_unstable();
    expected
}

#[track_caller]
fn assert_sorts(client: &mut Client<U32Rec>, job_id: u64, data: &[U32Rec]) {
    match client.sort(job_id, data).expect("round trip") {
        Reply::Sorted {
            job_id: echoed,
            records,
        } => {
            assert_eq!(echoed, job_id);
            assert_eq!(records, expect_sorted(data));
        }
        Reply::ServerError { code, message, .. } => panic!("job {job_id}: {code}: {message}"),
    }
}

#[test]
fn one_client_roundtrips_jobs_of_many_sizes() {
    let server = spawn_server(test_config());
    let mut client = Client::<U32Rec>::connect(server.local_addr()).expect("connect");
    let mut rng = Rng::seed_from_u64(1);
    for (job_id, n) in [(1u64, 0usize), (2, 1), (3, 63), (4, 1024), (5, 10_000)] {
        let data = random_records(&mut rng, n);
        assert_sorts(&mut client, job_id, &data);
    }
    let stats = server.shutdown();
    assert_eq!(stats.jobs_ok, 5);
    assert_eq!(stats.wire_errors, 0);
}

#[test]
fn the_terminal_record_is_sanitized_like_every_other_entry_point() {
    let server = spawn_server(test_config());
    let mut client = Client::<U32Rec>::connect(server.local_addr()).expect("connect");
    let data = [U32Rec::new(0), U32Rec::new(5), U32Rec::new(0)];
    match client.sort(61, &data).expect("round trip") {
        Reply::Sorted { records, .. } => {
            assert_eq!(records, [U32Rec::new(1), U32Rec::new(1), U32Rec::new(5)]);
        }
        Reply::ServerError { code, message, .. } => panic!("{code}: {message}"),
    }
    assert_eq!(server.shutdown().jobs_ok, 1);
}

#[test]
fn pipelined_jobs_stream_back_and_pair_by_id() {
    let server = spawn_server(test_config());
    let mut client = Client::<U32Rec>::connect(server.local_addr()).expect("connect");
    let mut rng = Rng::seed_from_u64(2);
    let jobs: Vec<(u64, Vec<U32Rec>)> = (0..6)
        .map(|j| (100 + j, random_records(&mut rng, 2000 + 500 * j as usize)))
        .collect();
    for (job_id, data) in &jobs {
        client.send(*job_id, data).expect("send");
    }
    // Replies arrive in completion order; pair them by echoed id.
    let mut seen = std::collections::HashMap::new();
    for _ in 0..jobs.len() {
        match client.recv().expect("recv") {
            Reply::Sorted { job_id, records } => {
                assert!(seen.insert(job_id, records).is_none(), "duplicate {job_id}");
            }
            Reply::ServerError { code, message, .. } => panic!("{code}: {message}"),
        }
    }
    for (job_id, data) in &jobs {
        assert_eq!(seen[job_id], expect_sorted(data), "job {job_id}");
    }
    drop(client);
    assert_eq!(server.shutdown().jobs_ok, 6);
}

#[test]
fn colliding_job_ids_across_connections_stay_isolated() {
    let server = spawn_server(test_config());
    let addr = server.local_addr();
    let mut rng = Rng::seed_from_u64(3);
    let data_a = random_records(&mut rng, 3000);
    let data_b = random_records(&mut rng, 50);
    // Same caller id 7 on both connections: the runtime's tickets (not
    // the colliding ids) attribute results, and each connection's
    // reply channel only ever sees its own jobs.
    let (got_a, got_b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| {
            let mut c = Client::<U32Rec>::connect(addr).expect("connect a");
            c.sort(7, &data_a).expect("sort a")
        });
        let b = scope.spawn(|| {
            let mut c = Client::<U32Rec>::connect(addr).expect("connect b");
            c.sort(7, &data_b).expect("sort b")
        });
        (a.join().expect("join a"), b.join().expect("join b"))
    });
    match (got_a, got_b) {
        (
            Reply::Sorted {
                records: records_a, ..
            },
            Reply::Sorted {
                records: records_b, ..
            },
        ) => {
            assert_eq!(records_a, expect_sorted(&data_a));
            assert_eq!(records_b, expect_sorted(&data_b));
        }
        other => panic!("expected two sorted replies, got {other:?}"),
    }
    assert_eq!(server.shutdown().jobs_ok, 2);
}

#[test]
fn bad_magic_closes_only_that_connection() {
    let server = spawn_server(test_config());
    let addr = server.local_addr();
    let mut rng = Rng::seed_from_u64(4);
    let mut victim = Client::<U32Rec>::connect(addr).expect("connect victim");
    let mut bystander = Client::<U32Rec>::connect(addr).expect("connect bystander");

    victim
        .send_raw(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
        .expect("raw");
    match victim.recv().expect("error reply") {
        Reply::ServerError { code, .. } => assert_eq!(code, "BON070"),
        other => panic!("expected BON070, got {other:?}"),
    }
    // The desynchronized connection is closed (EOF, or a reset when
    // the server discards the unread remainder of the bad request)...
    match victim.recv() {
        Err(e) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::UnexpectedEof | std::io::ErrorKind::ConnectionReset
            ),
            "unexpected error {e:?}"
        ),
        Ok(other) => panic!("connection should be closed, got {other:?}"),
    }
    // ...while the bystander (and new connections) keep sorting.
    let data = random_records(&mut rng, 500);
    assert_sorts(&mut bystander, 1, &data);
    let mut fresh = Client::<U32Rec>::connect(addr).expect("reconnect");
    assert_sorts(&mut fresh, 2, &data);

    let stats = server.shutdown();
    assert_eq!(stats.wire_errors, 1);
    assert_eq!(stats.jobs_ok, 2);
}

#[test]
fn recoverable_wire_errors_keep_the_connection_alive() {
    use bonsai_net::frame::RequestHeader;
    let server = spawn_server(test_config());
    let mut client = Client::<U32Rec>::connect(server.local_addr()).expect("connect");
    let mut rng = Rng::seed_from_u64(5);

    // BON071: wrong version, intact framing.
    let mut bytes = RequestHeader {
        record_width: 4,
        job_id: 11,
        payload_len: 8,
    }
    .encode()
    .to_vec();
    bytes[4] = 9;
    bytes.extend_from_slice(&[0u8; 8]);
    client.send_raw(&bytes).expect("raw");
    match client.recv().expect("reply") {
        Reply::ServerError { job_id, code, .. } => {
            assert_eq!(job_id, 11);
            assert_eq!(code, "BON071");
        }
        other => panic!("expected BON071, got {other:?}"),
    }

    // BON074: ragged payload.
    let mut bytes = RequestHeader {
        record_width: 4,
        job_id: 12,
        payload_len: 10,
    }
    .encode()
    .to_vec();
    bytes.extend_from_slice(&[0u8; 10]);
    client.send_raw(&bytes).expect("raw");
    match client.recv().expect("reply") {
        Reply::ServerError { job_id, code, .. } => {
            assert_eq!(job_id, 12);
            assert_eq!(code, "BON074");
        }
        other => panic!("expected BON074, got {other:?}"),
    }

    // BON075: wrong record width.
    let mut bytes = RequestHeader {
        record_width: 8,
        job_id: 13,
        payload_len: 16,
    }
    .encode()
    .to_vec();
    bytes.extend_from_slice(&[0u8; 16]);
    client.send_raw(&bytes).expect("raw");
    match client.recv().expect("reply") {
        Reply::ServerError { job_id, code, .. } => {
            assert_eq!(job_id, 13);
            assert_eq!(code, "BON075");
        }
        other => panic!("expected BON075, got {other:?}"),
    }

    // After three malformed frames, the same connection still sorts.
    let data = random_records(&mut rng, 300);
    assert_sorts(&mut client, 14, &data);

    let stats = server.shutdown();
    assert_eq!(stats.wire_errors, 3);
    assert_eq!(stats.jobs_ok, 1);
}

#[test]
fn oversized_declaration_is_refused_and_closes_the_connection() {
    use bonsai_net::frame::RequestHeader;
    let config = ServerConfig {
        max_payload: 1024,
        ..test_config()
    };
    let server = spawn_server(config);
    let mut client = Client::<U32Rec>::connect(server.local_addr()).expect("connect");
    let bytes = RequestHeader {
        record_width: 4,
        job_id: 21,
        payload_len: 4096,
    }
    .encode();
    client.send_raw(&bytes).expect("raw");
    match client.recv().expect("reply") {
        Reply::ServerError { job_id, code, .. } => {
            assert_eq!(job_id, 21);
            assert_eq!(code, "BON073");
        }
        other => panic!("expected BON073, got {other:?}"),
    }
    match client.recv() {
        Err(e) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::UnexpectedEof | std::io::ErrorKind::ConnectionReset
            ),
            "unexpected error {e:?}"
        ),
        Ok(other) => panic!("connection should be closed, got {other:?}"),
    }
    assert_eq!(server.shutdown().wire_errors, 1);
}

#[test]
fn truncated_frame_gets_bon072_before_the_connection_closes() {
    use bonsai_net::frame::RequestHeader;
    let server = spawn_server(test_config());
    let mut client = Client::<U32Rec>::connect(server.local_addr()).expect("connect");
    let mut bytes = RequestHeader {
        record_width: 4,
        job_id: 31,
        payload_len: 400,
    }
    .encode()
    .to_vec();
    bytes.extend_from_slice(&[0u8; 100]);
    client.send_raw(&bytes).expect("raw");
    client.finish_writes().expect("half-close");
    match client.recv().expect("reply") {
        Reply::ServerError { job_id, code, .. } => {
            assert_eq!(job_id, 31);
            assert_eq!(code, "BON072");
        }
        other => panic!("expected BON072, got {other:?}"),
    }
    assert_eq!(server.shutdown().wire_errors, 1);
}

#[test]
fn failing_jobs_come_back_as_bon077_without_disturbing_good_ones() {
    // A tiny per-pass cycle bound makes big jobs livelock (BON040 int
    // the job error) while small ones still finish.
    let config = ServerConfig {
        runtime: RuntimeConfig {
            workers: 2,
            queue_depth: 8,
            max_pass_cycles: Some(10),
            ..RuntimeConfig::default()
        },
        ..test_config()
    };
    let server = spawn_server(config);
    let mut rng = Rng::seed_from_u64(6);
    let mut client = Client::<U32Rec>::connect(server.local_addr()).expect("connect");

    let big = random_records(&mut rng, 50_000);
    match client.sort(41, &big).expect("round trip") {
        Reply::ServerError {
            job_id,
            code,
            message,
        } => {
            assert_eq!(job_id, 41);
            assert_eq!(code, "BON077");
            assert!(message.contains("BON077"), "{message}");
        }
        Reply::Sorted { records, .. } => {
            panic!(
                "a 10-cycle pass bound should livelock {} records",
                records.len()
            )
        }
    }

    // Same connection, tiny job: fits the bound, still sorts.
    let small = random_records(&mut rng, 4);
    assert_sorts(&mut client, 42, &small);

    let stats = server.shutdown();
    assert_eq!(stats.jobs_failed, 1);
    assert_eq!(stats.jobs_ok, 1);
}

#[test]
fn shutdown_token_stops_the_server_and_later_jobs_are_rejected() {
    let config = ServerConfig {
        shutdown_token: Some(0xDEAD_BEEF),
        ..test_config()
    };
    let server = spawn_server(config);
    let addr = server.local_addr();
    let mut rng = Rng::seed_from_u64(7);

    let mut client = Client::<U32Rec>::connect(addr).expect("connect");
    assert_sorts(&mut client, 51, &random_records(&mut rng, 100));

    // Wrong token: width-0 control frame is rejected, server unaffected.
    match client.request_shutdown(123).expect("reply") {
        Reply::ServerError { code, .. } => assert_eq!(code, "BON075"),
        other => panic!("expected BON075 for a bad token, got {other:?}"),
    }
    assert!(!server.is_stopping());

    // Right token: acknowledged with an empty success frame.
    match client.request_shutdown(0xDEAD_BEEF).expect("reply") {
        Reply::Sorted { records, .. } => assert!(records.is_empty()),
        other => panic!("expected shutdown ack, got {other:?}"),
    }
    server.wait();

    // A job racing the shutdown is either refused with BON076 or the
    // connection is already gone — never silently dropped.
    match client.sort(52, &random_records(&mut rng, 10)) {
        Ok(Reply::ServerError { code, .. }) => assert_eq!(code, "BON076"),
        Ok(other) => panic!("expected BON076, got {other:?}"),
        Err(e) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::UnexpectedEof
                    | std::io::ErrorKind::BrokenPipe
                    | std::io::ErrorKind::ConnectionReset
            ),
            "unexpected error {e:?}"
        ),
    }

    let stats = server.shutdown();
    assert_eq!(stats.jobs_ok, 1);
}

#[test]
fn backpressure_many_clients_with_tiny_queue_all_finish() {
    // 16 clients × 4 jobs against a queue of depth 2 and one worker:
    // the bounded queue plus the per-client gate must backpressure,
    // not drop or deadlock.
    let config = ServerConfig {
        runtime: RuntimeConfig {
            workers: 1,
            queue_depth: 2,
            ..RuntimeConfig::default()
        },
        max_inflight_per_client: 2,
        ..test_config()
    };
    let server = spawn_server(config);
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        for c in 0..16u64 {
            scope.spawn(move || {
                let mut rng = Rng::seed_from_u64(c);
                let mut client = Client::<U32Rec>::connect(addr).expect("connect");
                for j in 0..4u64 {
                    let data: Vec<U32Rec> = (0..200).map(|_| U32Rec::new(rng.next_u32())).collect();
                    let mut expected: Vec<U32Rec> = data.iter().map(|r| r.sanitize()).collect();
                    expected.sort_unstable();
                    match client.sort(j, &data).expect("round trip") {
                        Reply::Sorted { job_id, records } => {
                            assert_eq!(job_id, j);
                            assert_eq!(records, expected);
                        }
                        Reply::ServerError { code, message, .. } => {
                            panic!("{code}: {message}");
                        }
                    }
                }
            });
        }
    });
    let stats = server.shutdown();
    assert_eq!(stats.jobs_ok, 64);
    assert_eq!(stats.connections, 16);
}

#[test]
fn dropped_client_mid_flight_does_not_wedge_the_server() {
    let server = spawn_server(test_config());
    let addr = server.local_addr();
    let mut rng = Rng::seed_from_u64(8);
    {
        let mut client = Client::<U32Rec>::connect(addr).expect("connect");
        for j in 0..4 {
            client
                .send(j, &random_records(&mut rng, 5000))
                .expect("send");
        }
        // Drop without reading a single reply.
    }
    let mut survivor = Client::<U32Rec>::connect(addr).expect("connect");
    assert_sorts(&mut survivor, 1, &random_records(&mut rng, 100));
    server.shutdown();
}

#[test]
fn adaptive_server_reports_cache_and_reprogram_counters() {
    let mut config = test_config();
    config.runtime.workers = 1;
    config.runtime.scheduler = bonsai_runtime::PassScheduler::Adaptive;
    let server = spawn_server(config);
    let mut client = Client::<U32Rec>::connect(server.local_addr()).expect("connect");
    let mut rng = Rng::seed_from_u64(21);
    // Three same-sized jobs: one cold compile, then cache hits. The
    // output contract is unchanged by the adaptive scheduler.
    let data = random_records(&mut rng, 8_000);
    for job_id in 1..=3 {
        assert_sorts(&mut client, job_id, &data);
    }
    let live = server.stats();
    assert_eq!(live.jobs_ok, 3);
    assert!(live.shape_cache_misses >= 1, "first job compiles its shape");
    assert!(
        live.shape_cache_hits >= 2,
        "repeats hit the cache: {live:?}"
    );
    assert!(live.reprograms >= 1, "first plan programs the device");
    // The counters survive into the final shutdown snapshot.
    let stats = server.shutdown();
    assert_eq!(stats.shape_cache_hits, live.shape_cache_hits);
    assert_eq!(stats.shape_cache_misses, live.shape_cache_misses);
}

#[test]
fn fifo_server_reports_zero_adaptive_counters() {
    let server = spawn_server(test_config());
    let mut client = Client::<U32Rec>::connect(server.local_addr()).expect("connect");
    let mut rng = Rng::seed_from_u64(22);
    assert_sorts(&mut client, 1, &random_records(&mut rng, 2_000));
    let stats = server.shutdown();
    assert_eq!(stats.jobs_ok, 1);
    assert_eq!(stats.shape_cache_hits, 0);
    assert_eq!(stats.shape_cache_misses, 0);
    assert_eq!(stats.reprograms, 0);
}
