/// \file server_tcp_test.cc
/// \brief TcpServer end-to-end over a real loopback socket: framed OK/ERR
/// responses, dot-commands, per-connection sessions, .analyze beside a
/// writer, and clean Stop().
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "db/database.h"
#include "server/session.h"
#include "server/tcp_server.h"

namespace dl2sql::server {
namespace {

/// Minimal blocking line-protocol client over a raw socket.
class RawClient {
 public:
  explicit RawClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    DL2SQL_CHECK(fd_ >= 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    DL2SQL_CHECK(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) == 1);
    DL2SQL_CHECK(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0);
  }
  ~RawClient() { Close(); }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  bool Send(const std::string& statement) {
    std::string line = statement + "\n";
    size_t sent = 0;
    while (sent < line.size()) {
      const ssize_t n =
          ::send(fd_, line.data() + sent, line.size() - sent, 0);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads one framed response, returned including its "END\n" line.
  /// Empty string on EOF.
  std::string ReadResponse() {
    std::string response;
    while (true) {
      size_t nl;
      while ((nl = buffer_.find('\n')) != std::string::npos) {
        const std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        response += line;
        response += '\n';
        if (line == "END") return response;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return std::string();
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  std::string RoundTrip(const std::string& statement) {
    if (!Send(statement)) return std::string();
    return ReadResponse();
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

struct ServerFixture {
  db::Database db;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<TcpServer> server;

  ServerFixture() {
    ServiceOptions opts;
    opts.admission.max_concurrent = 4;
    service = std::make_unique<QueryService>(&db, opts);
    server = std::make_unique<TcpServer>(service.get(), TcpServerOptions{});
    const Status st = server->Start();
    DL2SQL_CHECK(st.ok()) << st.ToString();
  }
  ~ServerFixture() { server->Stop(); }
};

TEST(TcpServer, SqlRoundTripOverLoopback) {
  ServerFixture f;
  ASSERT_GT(f.server->port(), 0);
  RawClient client(f.server->port());

  EXPECT_EQ(client.RoundTrip("CREATE TABLE pts (x INT64, y FLOAT64)"),
            "OK 0 0\nEND\n");
  // DML frames carry the affected-row count.
  EXPECT_EQ(client.RoundTrip(
                "INSERT INTO pts VALUES (1, 0.5), (2, 1.5), (3, 2.5)"),
            "OK 3 0\nEND\n");
  EXPECT_EQ(client.RoundTrip("SELECT x, y FROM pts WHERE x >= 2 ORDER BY x"),
            "OK 2 2\nx\ty\n2\t1.5\n3\t2.5\nEND\n");
}

TEST(TcpServer, ErrorsAreFramedNotFatal) {
  ServerFixture f;
  RawClient client(f.server->port());

  const std::string err = client.RoundTrip("SELECT broken FROM nowhere");
  ASSERT_FALSE(err.empty());
  EXPECT_EQ(err.compare(0, 4, "ERR "), 0) << err;
  EXPECT_NE(err.find("END\n"), std::string::npos);
  // The connection survives the error.
  EXPECT_EQ(client.RoundTrip("CREATE TABLE ok_after_err (x INT64)"),
            "OK 0 0\nEND\n");
}

TEST(TcpServer, DotCommandsPingAndFormat) {
  ServerFixture f;
  RawClient client(f.server->port());

  const std::string pong = client.RoundTrip(".ping");
  EXPECT_NE(pong.find("OK"), std::string::npos) << pong;

  ASSERT_EQ(client.RoundTrip("CREATE TABLE j (a INT64)"), "OK 0 0\nEND\n");
  ASSERT_EQ(client.RoundTrip("INSERT INTO j VALUES (7)"), "OK 1 0\nEND\n");

  const std::string fmt = client.RoundTrip(".format json");
  EXPECT_NE(fmt.find("OK"), std::string::npos) << fmt;
  const std::string json = client.RoundTrip("SELECT a FROM j");
  EXPECT_NE(json.find("{\"columns\":[\"a\"],\"rows\":[[7]]}"),
            std::string::npos)
      << json;

  const std::string bad = client.RoundTrip(".format csv");
  EXPECT_EQ(bad.compare(0, 4, "ERR "), 0) << bad;
}

TEST(TcpServer, SessionsAreIndependentPerConnection) {
  ServerFixture f;
  RawClient a(f.server->port());
  RawClient b(f.server->port());

  // Format changes on connection A must not leak into connection B.
  ASSERT_EQ(b.RoundTrip("CREATE TABLE shared (v INT64)"), "OK 0 0\nEND\n");
  ASSERT_EQ(b.RoundTrip("INSERT INTO shared VALUES (42)"), "OK 1 0\nEND\n");
  ASSERT_NE(a.RoundTrip(".format json").find("OK"), std::string::npos);

  const std::string from_b = b.RoundTrip("SELECT v FROM shared");
  EXPECT_EQ(from_b, "OK 1 1\nv\n42\nEND\n");  // B still renders TSV
  const std::string from_a = a.RoundTrip("SELECT v FROM shared");
  EXPECT_NE(from_a.find("\"rows\":[[42]]"), std::string::npos) << from_a;
}

TEST(TcpServer, AnalyzeWaitsForConcurrentWriters) {
  // .analyze takes admission and the statement lock like any SELECT, so a
  // writer appending to the analyzed table on another connection never
  // changes it mid-read.
  ServerFixture f;
  RawClient setup(f.server->port());
  ASSERT_EQ(setup.RoundTrip("CREATE TABLE grow (g INT64, v INT64)"),
            "OK 0 0\nEND\n");
  std::string insert = "INSERT INTO grow VALUES ";
  for (int i = 0; i < 200; ++i) {
    insert += (i == 0 ? "(" : ", (") + std::to_string(i % 7) + ", " +
              std::to_string(i) + ")";
  }

  std::atomic<bool> stop{false};
  std::atomic<int> inserts{0};
  std::atomic<bool> writer_done{false};
  std::string write_error;
  std::thread writer([&] {
    RawClient client(f.server->port());
    for (int i = 0; i < 2000 && !stop.load(); ++i) {
      const std::string r = client.RoundTrip(insert);
      if (r != "OK 200 0\nEND\n") {
        write_error = r;
        break;
      }
      inserts.fetch_add(1);
    }
    writer_done.store(true);
  });
  // Start analyzing once the writer is appending, so the two overlap.
  while (inserts.load() == 0 && !writer_done.load()) std::this_thread::yield();
  RawClient analyzer(f.server->port());
  std::vector<std::string> failed;
  for (int i = 0; i < 600; ++i) {
    const std::string r =
        analyzer.RoundTrip(".analyze SELECT g, sum(v) FROM grow GROUP BY g");
    if (r.compare(0, 3, "OK ") != 0 ||
        r.find("actual rows=") == std::string::npos) {
      failed.push_back(r);
    }
  }
  stop.store(true);
  writer.join();
  EXPECT_EQ(write_error, "");
  EXPECT_TRUE(failed.empty()) << failed.size() << " failed, e.g. "
                              << failed.front();
}

TEST(TcpServer, QuitClosesConnectionAndStopIsClean) {
  ServerFixture f;
  {
    RawClient client(f.server->port());
    ASSERT_FALSE(client.RoundTrip(".ping").empty());
    ASSERT_TRUE(client.Send(".quit"));
    // Server closes the connection after .quit: further reads hit EOF (the
    // .quit acknowledgement may or may not arrive first).
    std::string r = client.ReadResponse();
    if (!r.empty()) {
      EXPECT_TRUE(client.ReadResponse().empty());
    }
  }
  // Stop with a live connection open must not hang or crash.
  RawClient lingering(f.server->port());
  ASSERT_FALSE(lingering.RoundTrip(".ping").empty());
  f.server->Stop();
  f.server->Stop();  // idempotent
}

}  // namespace
}  // namespace dl2sql::server
