// End-to-end tests of the network layer: a real `NetServer` on an
// ephemeral port, real TCP sockets, concurrent `NetClient`s — holding the
// acceptance line of the layer: everything a remote client reads is
// bit-identical to what the in-process gateway returns, N concurrent
// connections coalesce into single-flight kernel work, SUBSCRIBE delivers
// terminal-state pushes without polling, and hostile bytes produce an
// ERROR frame, never a dead server.

#include "net/server.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "graph/graph_builder.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/messages.h"
#include "platform/gateway.h"
#include "platform/result_io.h"

namespace cyclerank {
namespace net {
namespace {

/// Counts kernel executions — the probe for cross-connection
/// single-flight coalescing.
class CountingAlgorithm final : public RelevanceAlgorithm {
 public:
  std::string_view name() const override { return "counting"; }
  bool requires_reference() const override { return false; }
  bool produces_scores() const override { return true; }
  Result<RankedList> Run(const Graph& g,
                         const AlgorithmRequest& request) const override {
    runs_.fetch_add(1);
    // Stay in flight long enough that concurrent submissions overlap.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::vector<double> scores(g.num_nodes());
    for (size_t i = 0; i < scores.size(); ++i) {
      scores[i] = request.alpha / (1.0 + static_cast<double>(i));
    }
    RankingOptions options;
    options.drop_zeros = false;
    return ScoresToRankedList(scores, options);
  }
  static std::atomic<int> runs_;
};

std::atomic<int> CountingAlgorithm::runs_{0};

/// Slow enough that a SUBSCRIBE lands before the terminal state does.
class SlowAlgorithm final : public RelevanceAlgorithm {
 public:
  std::string_view name() const override { return "slow"; }
  bool requires_reference() const override { return false; }
  bool produces_scores() const override { return true; }
  Result<RankedList> Run(const Graph& g,
                         const AlgorithmRequest& /*request*/) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    std::vector<double> scores(g.num_nodes(), 1.0);
    RankingOptions options;
    options.drop_zeros = false;
    return ScoresToRankedList(scores, options);
  }
};

class NetE2eTest : public ::testing::Test {
 protected:
  NetE2eTest() : store_(nullptr) {
    EXPECT_TRUE(
        registry_.Register(MakeAlgorithm(AlgorithmKind::kPageRank)).ok());
    EXPECT_TRUE(
        registry_.Register(MakeAlgorithm(AlgorithmKind::kCycleRank)).ok());
    EXPECT_TRUE(registry_.Register(std::make_shared<CountingAlgorithm>()).ok());
    EXPECT_TRUE(registry_.Register(std::make_shared<SlowAlgorithm>()).ok());

    GraphBuilder builder;
    builder.AddEdge("a", "b");
    builder.AddEdge("b", "a");
    builder.AddEdge("b", "c");
    builder.AddEdge("c", "a");
    EXPECT_TRUE(store_.PutDataset("tiny", builder.BuildShared().value()).ok());

    PlatformOptions options = PlatformOptions::WithWorkers(4, 123);
    options.listen_port = 0;  // ephemeral — tests never fight over a port
    options.io_threads = 2;
    gateway_ = std::make_unique<ApiGateway>(&store_, &registry_, options);
    server_ = std::make_unique<NetServer>(gateway_.get(), options);
    EXPECT_TRUE(server_->Start().ok());
  }

  NetClient Connect() {
    NetClient client;
    EXPECT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    return client;
  }

  QuerySet OneTask(const std::string& algorithm, const std::string& params) {
    TaskBuilder builder;
    EXPECT_TRUE(builder.Add("tiny", algorithm, params).ok());
    return builder.Build();
  }

  AlgorithmRegistry registry_;
  Datastore store_;
  std::unique_ptr<ApiGateway> gateway_;
  std::unique_ptr<NetServer> server_;
};

TEST_F(NetE2eTest, FullGatewaySurfaceOverTcp) {
  NetClient client = Connect();

  // Upload a dataset over the wire, then run against it.
  ASSERT_TRUE(client.UploadDataset("uploaded", "a,b\nb,a\n").ok());
  const std::string id =
      client.SubmitQuerySet([&] {
              TaskBuilder builder;
              EXPECT_TRUE(builder.Add("uploaded", "pagerank", "").ok());
              return builder.Build();
            }())
          .value();
  ASSERT_TRUE(client.WaitForCompletion(id, 30.0).value());

  const ComparisonStatus status = client.GetStatus(id).value();
  EXPECT_TRUE(status.done);
  EXPECT_EQ(status.completed, 1u);
  EXPECT_EQ(status.comparison_id, id);

  const auto results = client.GetResults(id).value();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].status.ok());
  EXPECT_FALSE(results[0].ranking.empty());

  EXPECT_TRUE(client.Cancel(id).ok());  // no-op on a done comparison
  EXPECT_EQ(client.GetStatus("no-such-comparison").status().code(),
            StatusCode::kNotFound);

  const std::string stats = client.Stats().value();
  EXPECT_NE(stats.find("frames_received="), std::string::npos);
  EXPECT_NE(stats.find("connections_accepted="), std::string::npos);
}

TEST_F(NetE2eTest, WireResultsAreBitIdenticalToInProcess) {
  NetClient client = Connect();
  const std::string id =
      client.SubmitQuerySet(OneTask("cyclerank", "source=a, k=3")).value();
  ASSERT_TRUE(client.WaitForCompletion(id, 30.0).value());

  // Same comparison, read through both paths.
  const auto wire = client.GetResults(id).value();
  const auto local = gateway_->GetResults(id).value();
  ASSERT_EQ(wire.size(), local.size());
  for (size_t i = 0; i < wire.size(); ++i) {
    // The result_io codec is lossless, so byte equality here means the
    // network transported every field — doubles included — exactly.
    EXPECT_EQ(SerializeTaskResult(wire[i]), SerializeTaskResult(local[i]));
  }
}

TEST_F(NetE2eTest, ReorderedSetResultsAreBitIdenticalAndInRequestOrder) {
  NetClient client = Connect();
  const auto set = [](int seed) {
    TaskBuilder builder;
    const std::string params = "seed=" + std::to_string(seed);
    EXPECT_TRUE(builder.Add("tiny", "pagerank", params).ok());
    EXPECT_TRUE(builder.Add("tiny", "counting", params).ok());
    EXPECT_TRUE(builder.Add("tiny", "slow", params).ok());
    return builder.Build();
  };
  // Warm the kernel-seconds estimates; the next set, given cheapest first,
  // is then enqueued slowest first.
  const std::string warm = client.SubmitQuerySet(set(1)).value();
  ASSERT_TRUE(client.WaitForCompletion(warm, 30.0).value());
  const QuerySet cheapest_first = set(2);
  const std::string id = client.SubmitQuerySet(cheapest_first).value();
  ASSERT_TRUE(client.WaitForCompletion(id, 30.0).value());

  GetResultsResponse wire;
  wire.results = client.GetResults(id).value();
  GetResultsResponse local;
  local.results = gateway_->GetResults(id).value();
  EXPECT_EQ(EncodeGetResultsResponse(wire), EncodeGetResultsResponse(local));
  ASSERT_EQ(wire.results.size(), cheapest_first.tasks.size());
  for (size_t i = 0; i < wire.results.size(); ++i) {
    EXPECT_TRUE(wire.results[i].status.ok());
    EXPECT_EQ(wire.results[i].task_id, id + "/" + std::to_string(i));
    EXPECT_EQ(wire.results[i].spec, cheapest_first.tasks[i]);
  }
}

TEST_F(NetE2eTest, EightConcurrentConnectionsCoalesceSingleFlight) {
  CountingAlgorithm::runs_ = 0;
  constexpr int kClients = 8;
  std::vector<std::string> serialized(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([this, i, &serialized] {
      NetClient client;
      ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
      // All eight submit the *same* spec — one kernel run must serve all.
      auto id = client.SubmitQuerySet(OneTask("counting", "alpha=0.5"));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ASSERT_TRUE(client.WaitForCompletion(*id, 30.0).value());
      auto results = client.GetResults(*id);
      ASSERT_TRUE(results.ok());
      ASSERT_EQ(results->size(), 1u);
      EXPECT_TRUE((*results)[0].status.ok());
      // Strip the per-submission metadata: each submission gets its own
      // task id, and `seconds` is per-delivery wall time (the leader
      // records the kernel run, followers record the fan-out copy). The
      // spec, status, and every ranking double must agree bit-exactly.
      TaskResult result = (*results)[0];
      result.task_id.clear();
      result.seconds = 0.0;
      serialized[i] = SerializeTaskResult(result);
    });
  }
  for (std::thread& thread : threads) thread.join();
  // Cross-connection single-flight: cached or coalesced, the kernel ran
  // exactly once for eight identical submissions over eight sockets.
  EXPECT_EQ(CountingAlgorithm::runs_.load(), 1);
  for (int i = 1; i < kClients; ++i) {
    EXPECT_EQ(serialized[i], serialized[0]) << "client " << i;
  }
}

TEST_F(NetE2eTest, SubscribeDeliversTerminalPushWithoutPolling) {
  NetClient submitter = Connect();
  NetClient watcher = Connect();
  const std::string id =
      submitter.SubmitQuerySet(OneTask("slow", "")).value();
  // Both connections subscribe — one also parks an indefinite wait.
  ASSERT_TRUE(watcher.Subscribe(id).ok());
  ASSERT_TRUE(submitter.Subscribe(id).ok());

  const EventMessage event = watcher.NextEvent(30.0).value();
  EXPECT_EQ(event.comparison.comparison_id, id);
  EXPECT_TRUE(event.comparison.done);
  EXPECT_EQ(event.comparison.completed, 1u);

  const EventMessage second = submitter.NextEvent(30.0).value();
  EXPECT_EQ(second.comparison.comparison_id, id);
  EXPECT_TRUE(second.comparison.done);
}

TEST_F(NetE2eTest, MultiTaskSetPushesOneEventAfterItsLastTask) {
  NetClient waiter = Connect();
  NetClient watcher = Connect();
  // Tasks of different lengths, one failing on a missing dataset: the set
  // turns done only when its 300 ms task does.
  TaskBuilder builder;
  ASSERT_TRUE(builder.Add("tiny", "pagerank", "").ok());
  ASSERT_TRUE(builder.Add("ghost", "pagerank", "").ok());
  ASSERT_TRUE(builder.Add("tiny", "counting", "alpha=0.25").ok());
  ASSERT_TRUE(builder.Add("tiny", "slow", "").ok());
  const std::string id = waiter.SubmitQuerySet(builder.Build()).value();
  // Both connections subscribe; the waiter also parks a WAIT.
  ASSERT_TRUE(watcher.Subscribe(id).ok());
  ASSERT_TRUE(waiter.Subscribe(id).ok());
  EXPECT_TRUE(waiter.WaitForCompletion(id, 30.0).value());

  for (NetClient* client : {&waiter, &watcher}) {
    const EventMessage event = client->NextEvent(30.0).value();
    EXPECT_EQ(event.comparison.comparison_id, id);
    EXPECT_TRUE(event.comparison.done);
    EXPECT_EQ(event.comparison.completed, 3u);
    EXPECT_EQ(event.comparison.failed, 1u);
    // Nothing follows: no second EVENT, and no second WAIT answer.
    EXPECT_EQ(client->NextEvent(0.3).status().code(),
              StatusCode::kDeadlineExceeded);
  }
  // The waiter's stream is clean: a stray frame would fail this round trip.
  EXPECT_TRUE(waiter.GetStatus(id).value().done);
}

TEST_F(NetE2eTest, SubscribeToFinishedComparisonPushesImmediately) {
  NetClient client = Connect();
  const std::string id =
      client.SubmitQuerySet(OneTask("pagerank", "")).value();
  ASSERT_TRUE(client.WaitForCompletion(id, 30.0).value());
  ASSERT_TRUE(client.Subscribe(id).ok());
  const EventMessage event = client.NextEvent(10.0).value();
  EXPECT_EQ(event.comparison.comparison_id, id);
  EXPECT_TRUE(event.comparison.done);
}

TEST_F(NetE2eTest, WaitTimesOutOverTheWire) {
  NetClient client = Connect();
  const std::string id = client.SubmitQuerySet(OneTask("slow", "")).value();
  // 50ms against a 300ms task: the server answers done=false at the
  // deadline (status OK — a timeout is an answer, not an error).
  EXPECT_FALSE(client.WaitForCompletion(id, 0.05).value());
  // And an indefinite wait afterwards completes normally.
  EXPECT_TRUE(client.WaitForCompletion(id, 0.0).value());
}

TEST_F(NetE2eTest, GarbageBytesGetAnErrorFrameNotACrash) {
  // Raw socket, deliberately not speaking CYRQ1.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  const char garbage[] = "this is definitely not a CYRQ frame";
  ASSERT_GT(::send(fd, garbage, sizeof(garbage), MSG_NOSIGNAL), 0);

  // The server answers one ERROR frame, then closes.
  std::string received;
  char buf[1024];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    received.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  FrameDecoder decoder(0);
  decoder.Feed(received);
  Frame frame;
  Status error;
  ASSERT_EQ(decoder.Next(&frame, &error), FrameDecoder::Outcome::kFrame);
  EXPECT_EQ(frame.type, kError);
  const auto message = DecodeErrorMessage(frame.payload).value();
  EXPECT_EQ(message.status.code(), StatusCode::kParseError);

  // The server survived: a well-behaved client still gets service.
  NetClient client = Connect();
  EXPECT_TRUE(client.Stats().ok());
  EXPECT_GE(server_->stats().protocol_errors, 1u);
}

TEST_F(NetE2eTest, V1PeerGetsAV1ErrorFrameThenClose) {
  // A STATS request from a v1 peer: version 0x01, FNV-1a checksum.
  std::string payload;
  binio::AppendU64(&payload, 1);
  std::string request = "CYRQ\x01";
  request.push_back(static_cast<char>(kStatsReq));
  binio::AppendVarint(&request, payload.size());
  binio::AppendU64(&request, binio::Fnv1a64(payload));
  request += payload;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  ASSERT_GT(::send(fd, request.data(), request.size(), MSG_NOSIGNAL), 0);

  // One ERROR frame the v1 peer can read, then the server closes.
  std::string received;
  char buf[1024];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    received.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  ASSERT_GE(received.size(), 6u);
  EXPECT_EQ(received.substr(0, 6), "CYRQ\x01\x7f");
  FrameDecoder decoder(0);
  decoder.Feed(received);
  Frame frame;
  Status error;
  ASSERT_EQ(decoder.Next(&frame, &error), FrameDecoder::Outcome::kFrame);
  EXPECT_EQ(DecodeErrorMessage(frame.payload).value().status.code(),
            StatusCode::kUnimplemented);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);  // nothing after the ERROR
}

TEST_F(NetE2eTest, TruncatedAndOversizedFramesNeverKillTheServer) {
  // A frame cut off mid-payload, then the connection dropped: the server
  // just discards the partial state.
  {
    NetClient client = Connect();
    // (Raw write through a second throwaway socket.)
  }
  const std::string valid = EncodeUploadDatasetRequest({1, "x", "a,b\n"});
  for (const size_t cut : {size_t{3}, size_t{10}, valid.size() - 1}) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server_->port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    ASSERT_GT(::send(fd, valid.data(), cut, MSG_NOSIGNAL), 0);
    ::close(fd);
  }
  // Oversized declared length (beyond the server's max_frame_bytes).
  {
    std::string huge_header;
    huge_header.append(kFrameMagic, sizeof(kFrameMagic));
    huge_header.push_back(static_cast<char>(kProtocolVersion));
    huge_header.push_back(0x01);
    uint64_t huge = uint64_t{1} << 50;
    while (huge >= 0x80) {
      huge_header.push_back(static_cast<char>((huge & 0x7f) | 0x80));
      huge >>= 7;
    }
    huge_header.push_back(static_cast<char>(huge));
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server_->port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    ASSERT_GT(
        ::send(fd, huge_header.data(), huge_header.size(), MSG_NOSIGNAL), 0);
    std::string received;
    char buf[256];
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n <= 0) break;
      received.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
    FrameDecoder decoder(0);
    decoder.Feed(received);
    Frame frame;
    Status error;
    ASSERT_EQ(decoder.Next(&frame, &error), FrameDecoder::Outcome::kFrame);
    EXPECT_EQ(DecodeErrorMessage(frame.payload).value().status.code(),
              StatusCode::kInvalidArgument);
  }
  // After all of that, normal service continues.
  NetClient client = Connect();
  const std::string id =
      client.SubmitQuerySet(OneTask("pagerank", "")).value();
  EXPECT_TRUE(client.WaitForCompletion(id, 30.0).value());
}

TEST_F(NetE2eTest, UnknownFrameTypeAnsweredWithoutDisconnect) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  // A well-framed message of a type this server never heard of, followed
  // by a valid stats request on the same connection.
  std::string bytes = EncodeFrame(0x5e, std::string("\0\0\0\0\0\0\0\0", 8));
  bytes += EncodeStatsRequest({42});
  ASSERT_GT(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL), 0);
  FrameDecoder decoder(0);
  std::vector<Frame> frames;
  char buf[4096];
  while (frames.size() < 2) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    ASSERT_GT(n, 0) << "server closed early";
    decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
    Frame frame;
    Status error;
    while (decoder.Next(&frame, &error) == FrameDecoder::Outcome::kFrame) {
      frames.push_back(frame);
    }
  }
  ::close(fd);
  EXPECT_EQ(frames[0].type, kError);
  EXPECT_EQ(DecodeErrorMessage(frames[0].payload).value().status.code(),
            StatusCode::kUnimplemented);
  EXPECT_EQ(frames[1].type, kStatsResp);  // the connection stayed open
}

TEST_F(NetE2eTest, MaxConnectionsRejectsTheOverflowConnection) {
  PlatformOptions options = PlatformOptions::WithWorkers(2, 7);
  options.listen_port = 0;
  options.max_connections = 1;
  NetServer small(gateway_.get(), options);
  ASSERT_TRUE(small.Start().ok());

  NetClient first;
  ASSERT_TRUE(first.Connect("127.0.0.1", small.port()).ok());
  ASSERT_TRUE(first.Stats().ok());  // occupies the single slot

  NetClient second;
  ASSERT_TRUE(second.Connect("127.0.0.1", small.port()).ok());
  const auto stats = second.Stats();
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kUnavailable);
  EXPECT_GE(small.stats().connections_rejected, 1u);

  // The admitted connection is unaffected.
  EXPECT_TRUE(first.Stats().ok());
}

TEST_F(NetE2eTest, GracefulShutdownAnswersParkedWaits) {
  NetClient client = Connect();
  const std::string id = client.SubmitQuerySet(OneTask("slow", "")).value();
  std::thread stopper([this] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    server_->Shutdown();
  });
  // Parked indefinitely, then the drain answers it with kUnavailable.
  const auto wait = client.WaitForCompletion(id, 0.0);
  stopper.join();
  // Either the task finished just before the drain (done) or the drain
  // answered kUnavailable — both are orderly; a hang or a crash is not.
  if (wait.ok()) {
    EXPECT_TRUE(*wait);
  } else {
    EXPECT_EQ(wait.status().code(), StatusCode::kUnavailable);
  }
}

/// Uploads bodies that name 2^32 - 2 or more nodes to a daemon with graph
/// budget `graph_store_bytes`: each must be refused on the node `ceiling`,
/// and the same connection served next.
void ExpectHugeBodiesRefused(size_t graph_store_bytes,
                             const std::string& ceiling) {
  PlatformOptions options = PlatformOptions::WithWorkers(2, 7);
  options.graph_store_bytes = graph_store_bytes;
  options.listen_port = 0;
  options.io_threads = 1;
  Datastore store(nullptr, options);
  AlgorithmRegistry registry;
  ASSERT_TRUE(registry.Register(MakeAlgorithm(AlgorithmKind::kPageRank)).ok());
  ApiGateway gateway(&store, &registry, options);
  NetServer server(&gateway, options);
  ASSERT_TRUE(server.Start().ok());
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  for (const char* body :
       {"4294967294,0\n", "*Vertices 4294967298\n*Arcs\n1 2\n",
        "4294967297 1\n0 1\n"}) {
    const Status refused = client.UploadDataset("huge", body);
    EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(refused.message().find("nodes exceed the node ceiling of " +
                                     ceiling),
              std::string::npos)
        << refused.ToString();
  }
  // The same connection is served next.
  ASSERT_TRUE(client.UploadDataset("small", "a,b\nb,a\n").ok());
  TaskBuilder builder;
  ASSERT_TRUE(builder.Add("small", "pagerank", "").ok());
  const std::string id = client.SubmitQuerySet(builder.Build()).value();
  ASSERT_TRUE(client.WaitForCompletion(id, 30.0).value());
  EXPECT_EQ(client.GetResults(id).value().size(), 1u);
}

TEST(NetUploadCeilingTest, TinyBodiesNamingHugeGraphsLeaveTheServerUp) {
  // A 2 MiB graph budget holds at most 131072 nodes. The 13-byte edge list
  // used to ask the daemon for two 32 GiB offset arrays, the Pajek body
  // threw bad_alloc.
  ExpectHugeBodiesRefused(2 << 20, "131072");
}

TEST(NetUploadCeilingTest, UnbudgetedDaemonRefusesTinyBodiesNamingHugeGraphs) {
  // No graph budget: the ceiling is a fixed 2^28 nodes.
  ExpectHugeBodiesRefused(0, "268435456");
}

}  // namespace
}  // namespace net
}  // namespace cyclerank
