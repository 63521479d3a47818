#include "server/tcp_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"

namespace dl2sql::server {

namespace {

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// One-shot HTTP for plain "GET <path> HTTP/1.x" request lines on the SQL
/// port. /metrics answers with the Prometheus text exposition of the global
/// registry — on a coordinator the distributed executor appends shard-labeled
/// series federated from each shard (best effort). Everything else is a 404.
/// The response always closes the connection, so trailing request headers can
/// be ignored.
std::string HttpResponseFor(const std::string& request_line,
                            QueryService* service) {
  std::string path = Trim(request_line.substr(4));
  const size_t space = path.find(' ');
  if (space != std::string::npos) path = path.substr(0, space);

  std::string status;
  std::string content_type;
  std::string body;
  if (path == "/metrics") {
    status = "200 OK";
    content_type = "text/plain; version=0.0.4; charset=utf-8";
    body = MetricsRegistry::ToPrometheusText(MetricsRegistry::Global().Snapshot());
    if (DistributedExecutor* dist = service->distributed_executor()) {
      body += dist->FederatedMetricsText();
    }
  } else {
    status = "404 Not Found";
    content_type = "text/plain; charset=utf-8";
    body = "not found (try /metrics)\n";
  }
  std::string out;
  out.reserve(body.size() + 128);
  out += "HTTP/1.1 " + status + "\r\n";
  out += "Content-Type: " + content_type + "\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

/// Executes a ".trace"-headed statement (coordinator traffic) and frames the
/// response with the profile/span trailer the coordinator folds into its
/// cross-node timeline. Span shipping needs the local collector enabled
/// (DL2SQL_TRACE=on); the profile line ships whenever introspection is on.
std::string ServeTracedStatement(Session* session, uint64_t trace_id,
                                 uint64_t parent_span_id,
                                 const std::string& sql) {
  const int64_t stmt_start_us = TraceCollector::NowMicros();
  db::QueryLogRecord rec;
  auto result = session->ExecuteTraced(
      sql, TraceContext{trace_id, parent_span_id}, &rec);
  if (!result.ok()) return FormatErrorResponse(result.status());

  const std::string body =
      RenderTable(*result, session->settings().format,
                  session->settings().render_max_rows);
  std::vector<std::vector<std::string>> meta;
  WireProfile prof;
  prof.rows = result->num_rows();
  prof.bytes = static_cast<int64_t>(body.size());
  prof.duration_us = rec.duration_us;
  prof.cpu_us = rec.cpu_us;
  prof.admission_wait_us = rec.admission_wait_us;
  prof.lock_wait_us = rec.lock_wait_us;
  prof.pool_queue_wait_us = rec.pool_queue_wait_us;
  prof.mem_peak_bytes = rec.mem_peak_bytes;
  prof.spill_bytes = rec.spill_bytes;
  prof.spill_partitions = rec.spill_partitions;
  prof.neural_calls = rec.neural_calls;
  meta.push_back(ProfileMetaFields(prof));

  TraceCollector& collector = TraceCollector::Global();
  if (collector.enabled()) {
    // Spans ship with start times relative to the statement start; the
    // coordinator rebases them onto its own clock (trace epochs are
    // per-process). Cap the trailer so a pathological span storm cannot
    // balloon the frame.
    constexpr size_t kMaxShippedSpans = 1024;
    std::vector<TraceEvent> spans =
        collector.SnapshotTrace(trace_id, stmt_start_us);
    if (spans.size() > kMaxShippedSpans) spans.resize(kMaxShippedSpans);
    for (TraceEvent& e : spans) {
      e.start_us -= stmt_start_us;
      meta.push_back(SpanMetaFields(e));
    }
  }
  return FrameOkBodyWithTrailer(result->num_rows(), result->num_columns(),
                                body, meta);
}

}  // namespace

TcpServer::TcpServer(QueryService* service, TcpServerOptions options)
    : service_(service), options_(std::move(options)) {}

TcpServer::~TcpServer() { Stop(); }

Status TcpServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError("socket(): ", std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen address '", options_.host, "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::IoError("bind(", options_.host, ":", options_.port,
                           "): ", std::strerror(errno));
  }
  if (::listen(listen_fd_, 64) != 0) {
    return Status::IoError("listen(): ", std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  }
  accept_thread_ = std::thread([this, fd = listen_fd_] { AcceptLoop(fd); });
  DL2SQL_LOG(Info) << "lindb server listening on " << options_.host << ":"
                   << port_;
  return Status::OK();
}

void TcpServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    if (listen_fd_ >= 0) {
      // shutdown() wakes the blocked accept(); close() alone does not on all
      // platforms.
      ::shutdown(listen_fd_, SHUT_RDWR);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    threads.swap(conn_threads_);
  }
  for (auto& t : threads) {
    if (t.joinable()) t.join();
  }
}

void TcpServer::AcceptLoop(int listen_fd) {
  static Counter* const connections =
      MetricsRegistry::Global().counter("server.connections");
  while (true) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) return;  // listen socket closed by Stop()
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) {
        ::close(fd);
        return;
      }
      conn_fds_.insert(fd);
      conn_threads_.emplace_back([this, fd] { ServeConnection(fd); });
    }
    connections->Increment();
  }
}

void TcpServer::ServeConnection(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  std::shared_ptr<Session> session = service_->CreateSession();

  std::string buffer;
  char chunk[4096];
  bool open = true;
  while (open) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<size_t>(n));
    size_t nl;
    while (open && (nl = buffer.find('\n')) != std::string::npos) {
      std::string line = Trim(buffer.substr(0, nl));
      buffer.erase(0, nl + 1);
      if (line.empty()) continue;
      if (StartsWith(line, "GET ")) {
        // A curl/Prometheus scrape landed on the SQL port: answer the one
        // request over HTTP and close, ignoring the remaining headers.
        SendAll(fd, HttpResponseFor(line, service_));
        open = false;
        break;
      }
      if (line[0] == '.') {
        if (line == ".quit") {
          SendAll(fd, "OK 0 0\nEND\n");
          open = false;
          break;
        }
        if (line == ".ping") {
          open = SendAll(fd, "OK 0 0\nEND\n");
          continue;
        }
        if (line == ".sys" || StartsWith(line, ".sys ")) {
          const std::string arg =
              line.size() > 4 ? Trim(line.substr(5)) : std::string();
          if (arg.empty()) {
            // List the registered system tables without going through SQL.
            db::TableSchema schema({{"name", db::DataType::kString}});
            db::Table listing{schema};
            Status st = Status::OK();
            for (const std::string& name :
                 service_->database()->catalog().VirtualTableNames()) {
              st = listing.AppendRow({db::Value::String(name)});
              if (!st.ok()) break;
            }
            open = SendAll(
                fd, st.ok() ? FormatOkResponse(listing,
                                               session->settings().format,
                                               session->settings().render_max_rows)
                            : FormatErrorResponse(st));
            continue;
          }
          const std::string table =
              StartsWith(arg, "system.") ? arg : "system." + arg;
          auto result = session->Execute("SELECT * FROM " + table);
          open = SendAll(
              fd, result.ok()
                      ? FormatOkResponse(*result, session->settings().format,
                                         session->settings().render_max_rows)
                      : FormatErrorResponse(result.status()));
          continue;
        }
        {
          // ".trace <id> <parent> <sql>": a coordinator-propagated statement.
          uint64_t trace_id = 0;
          uint64_t parent_span_id = 0;
          std::string traced_sql;
          if (ParseTraceStatement(line, &trace_id, &parent_span_id,
                                  &traced_sql)) {
            open = SendAll(fd, ServeTracedStatement(session.get(), trace_id,
                                                    parent_span_id,
                                                    traced_sql));
            continue;
          }
        }
        if (StartsWith(line, ".analyze ")) {
          // EXPLAIN ANALYZE under admission and the statement lock;
          // statements on sharded tables route through the distributed
          // executor, which appends the per-shard footer.
          auto text =
              service_->ExplainAnalyze(Trim(line.substr(9)), session.get());
          if (!text.ok()) {
            open = SendAll(fd, FormatErrorResponse(text.status()));
            continue;
          }
          db::TableSchema schema({{"plan", db::DataType::kString}});
          db::Table plan_table{schema};
          Status st = Status::OK();
          std::istringstream lines_in(*text);
          for (std::string plan_line; std::getline(lines_in, plan_line);) {
            st = plan_table.AppendRow({db::Value::String(plan_line)});
            if (!st.ok()) break;
          }
          open = SendAll(
              fd, st.ok() ? FormatOkResponse(plan_table,
                                             session->settings().format, -1)
                          : FormatErrorResponse(st));
          continue;
        }
        if (StartsWith(line, ".ctrace ")) {
          // Writes the (cluster-merged, on a coordinator) Chrome trace file.
          const std::string path = Trim(line.substr(8));
          DistributedExecutor* const dist = service_->distributed_executor();
          const Status st =
              dist != nullptr
                  ? dist->WriteClusterTrace(path)
                  : TraceCollector::Global().WriteChromeTrace(path);
          open = SendAll(fd, st.ok() ? "OK 0 0\nEND\n"
                                     : FormatErrorResponse(st));
          continue;
        }
        if (StartsWith(line, ".format ")) {
          auto format = ParseOutputFormat(Trim(line.substr(8)));
          if (format.ok()) {
            session->settings().format = *format;
            open = SendAll(fd, "OK 0 0\nEND\n");
          } else {
            open = SendAll(fd, FormatErrorResponse(format.status()));
          }
          continue;
        }
        open = SendAll(fd, FormatErrorResponse(Status::InvalidArgument(
                               "unknown command '", line, "'")));
        continue;
      }
      auto result = session->Execute(line);
      std::string response =
          result.ok()
              ? FormatOkResponse(*result, session->settings().format,
                                 session->settings().render_max_rows)
              : FormatErrorResponse(result.status());
      open = SendAll(fd, response);
    }
  }

  ::close(fd);
  std::lock_guard<std::mutex> lock(mu_);
  conn_fds_.erase(fd);
}

}  // namespace dl2sql::server
