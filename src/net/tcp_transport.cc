#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include "common/buffer_pool.h"

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <future>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "net/rpc_obs.h"

namespace glider::net {
namespace {

constexpr std::uint32_t kMaxFrame = 64u << 20;  // 64 MiB sanity bound

// RAII file descriptor. The descriptor value is atomic because owners
// Close()/Shutdown() from a destructor while an accept or read loop still
// holds get()'s result — the syscalls tolerate the stale fd, but the int
// itself must not race.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  Fd(Fd&& other) noexcept : fd_(other.fd_.exchange(-1)) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      Close();
      fd_.store(other.fd_.exchange(-1));
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  ~Fd() { Close(); }

  int get() const { return fd_.load(std::memory_order_relaxed); }
  bool valid() const { return get() >= 0; }
  void Close() {
    const int fd = fd_.exchange(-1);
    if (fd >= 0) ::close(fd);
  }
  // Closes the socket for reading and writing, unblocking any reader.
  void Shutdown() {
    const int fd = get();
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }

 private:
  std::atomic<int> fd_{-1};
};

Status WriteAll(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::send(fd, data + off, size - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable("send failed: " +
                                 std::string(std::strerror(errno)));
    }
    off += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

Status ReadAll(int fd, std::uint8_t* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::recv(fd, data + off, size - off, 0);
    if (n == 0) return Status::Closed("peer closed connection");
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable("recv failed: " +
                                 std::string(std::strerror(errno)));
    }
    off += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

// Both directions of every connection open with the 8-byte wire preamble
// (net/message.h), sent before any frame: the client in Connect() (so a
// Call() staged before the reader thread spins up can never beat it onto
// the wire), the server at the top of its connection loop (before any
// handler can stage a response). Each side then validates the peer's
// preamble at the top of its read path. Both sides send eagerly, so the
// exchange cannot deadlock and costs no extra round trip; a mixed-version
// or foreign peer fails fast with a clear error instead of misreading
// payload_len at the wrong offset and misframing.
Status SendPreamble(int fd) {
  std::uint8_t ours[kWirePreambleSize];
  EncodeWirePreamble(ours);
  return WriteAll(fd, ours, sizeof(ours));
}

Status ReceivePreamble(int fd) {
  std::uint8_t theirs[kWirePreambleSize];
  GLIDER_RETURN_IF_ERROR(ReadAll(fd, theirs, sizeof(theirs)));
  return CheckWirePreamble(theirs);
}

// Emits a gather list fully, advancing through partial writes. sendmsg is
// called with at most kMaxIovPerCall entries per round (well under any
// platform IOV_MAX); the advance loop resumes mid-entry after a short
// write.
Status SendIovecs(int fd, std::vector<iovec>& iov) {
  constexpr std::size_t kMaxIovPerCall = 64;
  std::size_t at = 0;
  while (at < iov.size()) {
    msghdr msg{};
    msg.msg_iov = iov.data() + at;
    msg.msg_iovlen = std::min(iov.size() - at, kMaxIovPerCall);
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable("send failed: " +
                                 std::string(std::strerror(errno)));
    }
    std::size_t advanced = static_cast<std::size_t>(n);
    while (at < iov.size() && advanced >= iov[at].iov_len) {
      advanced -= iov[at].iov_len;
      ++at;
    }
    if (at < iov.size() && advanced > 0) {
      iov[at].iov_base =
          static_cast<std::uint8_t*>(iov[at].iov_base) + advanced;
      iov[at].iov_len -= advanced;
    }
  }
  return Status::Ok();
}

// --- Send coalescing --------------------------------------------------------

// Per-connection batching writer. Senders stage frames (header plus small
// payloads copied into one contiguous buffer; large payloads referenced
// zero-copy as their own iovec segments) under the lock, then the whole
// backlog leaves in one sendmsg.
//
// Flushing is opportunistic: the enqueuing thread flushes immediately
// unless another thread's flush is already on the wire, in which case the
// active flusher picks the new frames up on its next swap. Uncontended
// sends keep the one-syscall latency; batches form exactly when the link
// is busy. Cork()/Uncork() suppress the flush so a caller issuing a known
// burst shares one flush; budget overflow still flushes mid-cork.
//
// A send error latches into `status_`: subsequent sends fail fast, and the
// connection's reader notices the dead socket and fails the pending calls,
// covering frames accepted before the error surfaced.
class SendCoalescer {
 public:
  // Flush as soon as this many bytes or frames are staged. The byte bound
  // doubles as backpressure: senders block once the staging area holds
  // this much while a flush is in flight.
  static constexpr std::size_t kCoalesceBytes = 256 * 1024;
  static constexpr std::size_t kCoalesceFrames = 64;
  // Payloads up to this size are copied into the staging buffer so the
  // whole batch is one contiguous iovec; larger payloads are referenced
  // zero-copy as their own sendmsg iovec.
  static constexpr std::size_t kInlineCopyBytes = 16 * 1024;

  explicit SendCoalescer(int fd) : fd_(fd) {}

  ~SendCoalescer() {
    {
      std::unique_lock lock(mu_);
      // Best-effort final flush so responses staged right before teardown
      // still reach the peer.
      if (status_.ok() && frames_ > 0) FlushBacklogLocked(lock);
      closed_ = true;
    }
    cv_.notify_all();
  }

  SendCoalescer(const SendCoalescer&) = delete;
  SendCoalescer& operator=(const SendCoalescer&) = delete;

  Status Send(const Message& message) {
    std::unique_lock lock(mu_);
    // Backpressure: past the byte budget with a flush already in flight,
    // wait for the swap instead of staging without bound.
    cv_.wait(lock, [&] {
      return closed_ || !status_.ok() || !flushing_ ||
             staged_bytes_ < kCoalesceBytes;
    });
    if (closed_) return Status::Closed("connection closed");
    if (!status_.ok()) return status_;
    StageLocked(message);
    const bool over_budget =
        staged_bytes_ >= kCoalesceBytes || frames_ >= kCoalesceFrames;
    if (cork_depth_ > 0 && !over_budget) return Status::Ok();
    return FlushBacklogLocked(lock);
  }

  void Cork() {
    std::scoped_lock lock(mu_);
    ++cork_depth_;
  }

  void Uncork() {
    std::unique_lock lock(mu_);
    if (cork_depth_ == 0 || --cork_depth_ > 0) return;
    if (frames_ == 0) return;
    if (status_.ok()) FlushBacklogLocked(lock);
  }

 private:
  // One element of the gather list: either a [stage_off, stage_off +
  // stage_len) window of the staging buffer, or a large payload held
  // zero-copy (`large` non-empty; its frame header still goes through the
  // staging buffer, so the wire order is preserved by segment order).
  struct Segment {
    std::size_t stage_off = 0;
    std::size_t stage_len = 0;
    Buffer large;
  };

  void StageLocked(const Message& message) {
    std::uint8_t header[kFrameHeaderSize];
    message.EncodeHeader(header);
    AppendStageLocked(header, sizeof(header));
    const ByteSpan payload = message.payload.span();
    if (payload.size() <= kInlineCopyBytes) {
      AppendStageLocked(payload.data(), payload.size());
    } else {
      Segment seg;
      seg.large = message.payload;  // refcount keeps the bytes alive
      segments_.push_back(std::move(seg));
    }
    ++frames_;
    staged_bytes_ += kFrameHeaderSize + payload.size();
  }

  void AppendStageLocked(const std::uint8_t* data, std::size_t size) {
    if (size == 0) return;
    if (!segments_.empty() && segments_.back().large.empty() &&
        segments_.back().stage_off + segments_.back().stage_len ==
            stage_.size()) {
      segments_.back().stage_len += size;  // extend the open stage window
    } else {
      segments_.push_back(Segment{stage_.size(), size, {}});
    }
    stage_.insert(stage_.end(), data, data + size);
  }

  // Emits the staged backlog, looping until it is empty: frames staged by
  // other threads while this one was inside sendmsg go out on the next
  // swap. At most one thread flushes at a time (`flushing_`); the lock is
  // dropped around the syscall so senders keep staging meanwhile.
  Status FlushBacklogLocked(std::unique_lock<std::mutex>& lock) {
    if (flushing_) return status_;  // active flusher will emit our frames
    flushing_ = true;
    while (status_.ok() && frames_ > 0) {
      std::vector<std::uint8_t> stage = std::move(stage_);
      std::vector<Segment> segments = std::move(segments_);
      stage_.clear();
      segments_.clear();
      frames_ = 0;
      staged_bytes_ = 0;
      lock.unlock();
      cv_.notify_all();  // budget waiters may stage the next batch
      std::vector<iovec> iov;
      iov.reserve(segments.size());
      for (const Segment& seg : segments) {
        iovec v;
        if (seg.large.empty()) {
          v.iov_base = stage.data() + seg.stage_off;
          v.iov_len = seg.stage_len;
        } else {
          v.iov_base = const_cast<std::uint8_t*>(seg.large.data());
          v.iov_len = seg.large.size();
        }
        iov.push_back(v);
      }
      const Status sent = SendIovecs(fd_, iov);
      lock.lock();
      if (!sent.ok()) status_ = sent;
    }
    flushing_ = false;
    if (!status_.ok()) cv_.notify_all();
    return status_;
  }

  const int fd_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::uint8_t> stage_;
  std::vector<Segment> segments_;
  std::size_t frames_ = 0;
  std::size_t staged_bytes_ = 0;
  int cork_depth_ = 0;
  bool flushing_ = false;
  bool closed_ = false;
  Status status_ = Status::Ok();
};

// --- Buffered receive -------------------------------------------------------

// Buffered frame decoder: each recv fills a pooled window (often with many
// frames — the peer coalesces), and Next() peels frames off as zero-copy
// slices of that window. A frame torn across the window boundary is
// reassembled by copying only the partial remainder into a fresh window
// (the old storage stays alive through the slices already handed out);
// payloads too large for a window bypass the buffering and read straight
// into their own pooled allocation.
class FrameReader {
 public:
  explicit FrameReader(int fd) : fd_(fd) {}

  // Blocking: decodes the next frame, refilling from the socket as needed.
  Result<Message> Next() {
    for (;;) {
      const std::size_t avail = filled_ - pos_;
      if (avail < kFrameHeaderSize) {
        GLIDER_RETURN_IF_ERROR(Refill(kFrameHeaderSize));
        continue;
      }
      Message m;
      std::uint32_t len = 0;
      GLIDER_RETURN_IF_ERROR(ParseHeader(base_ + pos_, m, len));
      const std::size_t total = kFrameHeaderSize + len;
      if (avail >= total) {
        if (len > 0) m.payload = buf_.Slice(pos_ + kFrameHeaderSize, len);
        pos_ += total;
        return m;
      }
      if (total > window_) {
        // Oversized frame: copy what is buffered of the payload, then read
        // the rest of it directly into its own exact-size allocation.
        Buffer payload = BufferPool::Global().Acquire(len);
        const std::size_t have = avail - kFrameHeaderSize;
        std::memcpy(payload.data(), base_ + pos_ + kFrameHeaderSize, have);
        pos_ = filled_;
        GLIDER_RETURN_IF_ERROR(ReadAll(fd_, payload.data() + have, len - have));
        m.payload = std::move(payload);
        return m;
      }
      GLIDER_RETURN_IF_ERROR(Refill(total));
    }
  }

  // True when the next whole frame is already buffered, i.e. Next() will
  // not touch the socket. The server loop uses this to size its dispatch
  // batches without risking a block mid-batch.
  bool FrameBuffered() const {
    const std::size_t avail = filled_ - pos_;
    if (avail < kFrameHeaderSize) return false;
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<std::uint32_t>(
                 base_[pos_ + kFrameHeaderSize - 4 + i])
             << (8 * i);
    }
    return avail >= kFrameHeaderSize + len;
  }

 private:
  static constexpr std::size_t kWindowBytes = 64 * 1024;

  static Status ParseHeader(const std::uint8_t* header, Message& m,
                            std::uint32_t& len) {
    auto get16 = [&](int at) {
      return static_cast<std::uint16_t>(
          static_cast<std::uint16_t>(header[at]) |
          (static_cast<std::uint16_t>(header[at + 1]) << 8));
    };
    auto get64 = [&](int at) {
      std::uint64_t v = 0;
      for (int i = 0; i < 8; ++i) {
        v |= static_cast<std::uint64_t>(header[at + i]) << (8 * i);
      }
      return v;
    };
    m.opcode = get16(0);
    m.status = static_cast<StatusCode>(get16(2));
    m.request_id = get64(4);
    m.trace_id = get64(12);
    m.span_id = get64(20);
    m.principal = get64(28);
    len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<std::uint32_t>(header[kFrameHeaderSize - 4 + i])
             << (8 * i);
    }
    if (len > kMaxFrame) return Status::InvalidArgument("oversized frame");
    return Status::Ok();
  }

  // One recv into the window tail (first making sure the current frame can
  // complete there: `need` bytes from pos_). Swapping to a fresh window
  // copies only the unconsumed partial-frame remainder; outstanding payload
  // slices keep the old storage alive on their own.
  //
  // The window is written through `base_`, captured once while the Buffer
  // was provably unique: recv only ever fills [filled_, window_), which no
  // handed-out slice views (slices end at filled_), so the writes can never
  // show through a slice. Going through Buffer::data() here instead would
  // trigger its copy-on-write detach the moment a slice exists.
  Status Refill(std::size_t need) {
    if (window_ - pos_ < need) {
      const std::size_t remain = filled_ - pos_;
      Buffer fresh = BufferPool::Global().Acquire(
          need > kWindowBytes ? need : kWindowBytes);
      std::uint8_t* fresh_base = fresh.data();  // unique here, no detach
      if (remain > 0) std::memcpy(fresh_base, base_ + pos_, remain);
      buf_ = std::move(fresh);
      base_ = fresh_base;
      window_ = buf_.size();
      pos_ = 0;
      filled_ = remain;
    }
    const ssize_t n = ::recv(fd_, base_ + filled_, window_ - filled_, 0);
    if (n == 0) return Status::Closed("peer closed connection");
    if (n < 0) {
      if (errno == EINTR) return Status::Ok();  // caller loops
      return Status::Unavailable("recv failed: " +
                                 std::string(std::strerror(errno)));
    }
    filled_ += static_cast<std::size_t>(n);
    return Status::Ok();
  }

  const int fd_;
  Buffer buf_;
  std::uint8_t* base_ = nullptr;
  std::size_t window_ = 0;
  std::size_t pos_ = 0;
  std::size_t filled_ = 0;
};

Result<std::pair<std::string, std::uint16_t>> SplitHostPort(
    const std::string& address) {
  const auto colon = address.rfind(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument("address must be host:port: " + address);
  }
  const std::string host = address.substr(0, colon);
  const int port = std::atoi(address.c_str() + colon + 1);
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument("bad port in " + address);
  }
  return std::pair<std::string, std::uint16_t>(
      host.empty() ? "127.0.0.1" : host, static_cast<std::uint16_t>(port));
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// --- Server side -----------------------------------------------------------

class TcpListener : public Listener {
 public:
  TcpListener(Fd listen_fd, std::string address,
              std::shared_ptr<Service> service, std::size_t num_workers)
      : listen_fd_(std::move(listen_fd)), address_(std::move(address)),
        service_(std::move(service)), pool_(num_workers) {
    accept_thread_ = std::thread([this] { AcceptLoop(); });
  }

  ~TcpListener() override {
    stopping_ = true;
    listen_fd_.Shutdown();
    listen_fd_.Close();
    if (accept_thread_.joinable()) accept_thread_.join();
    {
      std::scoped_lock lock(conns_mu_);
      for (auto& c : conns_) c->fd.Shutdown();
    }
    for (auto& t : conn_threads_) {
      if (t.joinable()) t.join();
    }
    pool_.Shutdown();
  }

  std::string address() const override { return address_; }

 private:
  struct ServerConn {
    explicit ServerConn(int fd_value) : fd(fd_value), writer(fd.get()) {}
    Fd fd;
    SendCoalescer writer;
  };

  void AcceptLoop() {
    while (!stopping_) {
      const int cfd = ::accept(listen_fd_.get(), nullptr, nullptr);
      if (cfd < 0) {
        if (stopping_) return;
        if (errno == EINTR) continue;
        return;
      }
      SetNoDelay(cfd);
      auto conn = std::make_shared<ServerConn>(cfd);
      {
        std::scoped_lock lock(conns_mu_);
        conns_.push_back(conn);
        conn_threads_.emplace_back([this, conn] { ConnLoop(conn); });
      }
    }
  }

  std::function<void()> MakeTask(const std::shared_ptr<ServerConn>& conn,
                                 Message request) {
    auto service = service_;
    Responder responder(Responder::Fn([conn](Message response) {
      const Status s = conn->writer.Send(response);
      if (!s.ok()) {
        GLIDER_LOG(kDebug, "tcp") << "response write: " << s.ToString();
      }
    }));
    return [service, req = std::move(request),
            resp = std::move(responder)]() mutable {
      HandleWithObs(*service, std::move(req), std::move(resp),
                    /*transport_index=*/1);
    };
  }

  // Reads frames and rings the worker-pool doorbell: all the frames the
  // last recv buffered dispatch as one SubmitAll batch (one shard lock,
  // one wakeup, peers poked for the surplus) instead of one Submit each.
  void ConnLoop(std::shared_ptr<ServerConn> conn) {
    // Preamble first in both directions: ours goes out before any handler
    // can stage a response; the peer's is validated before any bytes are
    // interpreted as a frame header. Rejected peers get an immediate
    // shutdown so they observe a clean close instead of a hung socket
    // (accepted connections otherwise stay registered until listener
    // teardown).
    if (!SendPreamble(conn->fd.get()).ok()) return;
    if (const Status s = ReceivePreamble(conn->fd.get()); !s.ok()) {
      GLIDER_LOG(kWarn, "tcp") << "rejecting connection: " << s.ToString();
      conn->fd.Shutdown();
      return;
    }
    FrameReader reader(conn->fd.get());
    while (!stopping_) {
      auto first = reader.Next();
      if (!first.ok()) return;
      std::vector<std::function<void()>> batch;
      Status read_status = Status::Ok();
      Message request = std::move(first).value();
      for (;;) {
        batch.push_back(MakeTask(conn, std::move(request)));
        if (!reader.FrameBuffered()) break;
        auto next = reader.Next();
        if (!next.ok()) {
          read_status = next.status();
          break;
        }
        request = std::move(next).value();
      }
      if (!pool_.SubmitAll(std::move(batch)).ok()) return;
      if (!read_status.ok()) return;
    }
  }

  Fd listen_fd_;
  std::string address_;
  std::shared_ptr<Service> service_;
  ThreadPool pool_;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  std::mutex conns_mu_;
  std::vector<std::shared_ptr<ServerConn>> conns_;
  std::vector<std::thread> conn_threads_;
};

// --- Client side ------------------------------------------------------------

class TcpConnection : public Connection {
 public:
  TcpConnection(Fd fd, std::shared_ptr<LinkModel> link)
      : fd_(std::move(fd)), link_(std::move(link)), writer_(fd_.get()) {}

  // The reader captures `this`, not a shared_ptr: owning itself would make
  // the final release happen on the reader thread, which then joins itself.
  // The destructor shuts the socket down and joins before members die.
  void StartReader() {
    reader_ = std::thread([this] { ReadLoop(); });
  }

  ~TcpConnection() override {
    closing_ = true;
    fd_.Shutdown();
    if (reader_.joinable()) reader_.join();
    FailAllPending(Status::Closed("connection destroyed"));
  }

  std::future<Result<Message>> Call(Message request) override {
    request.request_id = next_id_.fetch_add(1, std::memory_order_relaxed);
    PendingCall pending;
    pending.trace = ClientCallTrace::Begin(request, /*transport_index=*/1);
    auto fut = pending.promise.get_future();
    {
      std::scoped_lock lock(pending_mu_);
      if (closing_) {
        pending.promise.set_value(Status::Closed("connection closed"));
        return fut;
      }
      pending_[request.request_id] = std::move(pending);
    }
    if (link_) {
      link_->OnSend(request.WireSize());
      // TCP cannot shape the receiver, so propagation latency is charged
      // on the sender (conservative for pipelined ops).
      if (link_->latency().count() > 0) {
        std::this_thread::sleep_for(link_->latency());
      }
    }
    const Status s = writer_.Send(request);
    if (!s.ok()) {
      TakePending(request.request_id, s);
    }
    return fut;
  }

  void Cork() override { writer_.Cork(); }
  void Uncork() override { writer_.Uncork(); }

 private:
  void ReadLoop() {
    // Our preamble already went out in Connect(), ahead of any staged
    // frame; validate the server's before decoding frame headers.
    if (const Status s = ReceivePreamble(fd_.get()); !s.ok()) {
      FailAllPending(s);
      return;
    }
    FrameReader reader(fd_.get());
    while (true) {
      auto response = reader.Next();
      if (!response.ok()) {
        FailAllPending(response.status());
        return;
      }
      if (link_) link_->OnReceive(response->WireSize());
      TakePendingOk(std::move(response).value());
    }
  }

  struct PendingCall {
    std::promise<Result<Message>> promise;
    ClientCallTrace trace;
  };

  void TakePendingOk(Message response) {
    PendingCall pending;
    {
      std::scoped_lock lock(pending_mu_);
      auto it = pending_.find(response.request_id);
      if (it == pending_.end()) return;  // response to an abandoned call
      pending = std::move(it->second);
      pending_.erase(it);
    }
    pending.trace.Finish();
    pending.promise.set_value(std::move(response));
  }

  void TakePending(std::uint64_t id, const Status& status) {
    PendingCall pending;
    {
      std::scoped_lock lock(pending_mu_);
      auto it = pending_.find(id);
      if (it == pending_.end()) return;
      pending = std::move(it->second);
      pending_.erase(it);
    }
    pending.trace.Finish();
    pending.promise.set_value(status);
  }

  void FailAllPending(const Status& status) {
    std::map<std::uint64_t, PendingCall> taken;
    {
      std::scoped_lock lock(pending_mu_);
      closing_ = true;
      taken.swap(pending_);
    }
    for (auto& [id, pending] : taken) {
      pending.trace.Finish();
      pending.promise.set_value(status);
    }
  }

  Fd fd_;
  std::shared_ptr<LinkModel> link_;
  SendCoalescer writer_;
  std::mutex pending_mu_;
  std::map<std::uint64_t, PendingCall> pending_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<bool> closing_{false};
  std::thread reader_;
};

}  // namespace

TcpTransport::TcpTransport(std::size_t num_workers)
    : num_workers_(num_workers) {}

TcpTransport::~TcpTransport() = default;

Result<std::unique_ptr<Listener>> TcpTransport::Listen(
    std::string preferred_address, std::shared_ptr<Service> service) {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  if (!preferred_address.empty()) {
    GLIDER_ASSIGN_OR_RETURN(auto hp, SplitHostPort(preferred_address));
    host = hp.first;
    port = hp.second;
  }

  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Status::Internal("socket() failed");
  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad host: " + host);
  }
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Status::Unavailable("bind failed: " +
                               std::string(std::strerror(errno)));
  }
  if (::listen(fd.get(), 128) != 0) {
    return Status::Unavailable("listen failed");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len);
  const std::string address =
      host + ":" + std::to_string(ntohs(bound.sin_port));

  return std::unique_ptr<Listener>(new TcpListener(
      std::move(fd), address, std::move(service), num_workers_));
}

Result<std::shared_ptr<Connection>> TcpTransport::Connect(
    const std::string& address, std::shared_ptr<LinkModel> link) {
  GLIDER_ASSIGN_OR_RETURN(auto hp, SplitHostPort(address));
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Status::Internal("socket() failed");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(hp.second);
  if (::inet_pton(AF_INET, hp.first.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad host: " + hp.first);
  }
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::Unavailable("connect to " + address + " failed: " +
                               std::string(std::strerror(errno)));
  }
  SetNoDelay(fd.get());
  // Preamble before the connection (and its coalescer) exists, so no frame
  // can precede it on the wire; the server's preamble is validated by the
  // reader thread.
  GLIDER_RETURN_IF_ERROR(SendPreamble(fd.get()));
  auto conn = std::make_shared<TcpConnection>(std::move(fd), std::move(link));
  conn->StartReader();
  return std::shared_ptr<Connection>(conn);
}

}  // namespace glider::net
