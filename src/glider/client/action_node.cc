#include "glider/client/action_node.h"

#include <algorithm>

#include "common/buffer_pool.h"
#include "net/rpc_client.h"

namespace glider::core {

Result<ActionNode> ActionNode::Create(nk::StoreClient& client,
                                      const std::string& path,
                                      const std::string& action_type,
                                      bool interleave, ByteSpan config) {
  GLIDER_ASSIGN_OR_RETURN(
      auto info, client.CreateActionNode(path, action_type, interleave));
  GLIDER_ASSIGN_OR_RETURN(auto conn, client.ConnectTo(info.slot.address));

  ActionCreateRequest req;
  req.slot = info.slot.block;
  req.action_type = action_type;
  req.interleave = interleave;
  req.config = Buffer(config.data(), config.size());
  const Status created = net::CallVoid(*conn, kActionCreate, req);
  if (!created.ok()) {
    // Roll the node back so the namespace does not keep a dead action.
    (void)client.Delete(path);
    return created;
  }
  return ActionNode(client, path, std::move(info), std::move(conn));
}

Result<ActionNode> ActionNode::Lookup(nk::StoreClient& client,
                                      const std::string& path) {
  GLIDER_ASSIGN_OR_RETURN(auto info, client.Lookup(path));
  if (info.type != nk::NodeType::kAction) {
    return Status::WrongNodeType(path + " is not an action node");
  }
  GLIDER_ASSIGN_OR_RETURN(auto conn, client.ConnectTo(info.slot.address));
  return ActionNode(client, path, std::move(info), std::move(conn));
}

Status ActionNode::DeleteObject() {
  SlotRequest req;
  req.slot = info_.slot.block;
  return net::CallVoid(*conn_, kActionDelete, req);
}

Status ActionNode::Delete(nk::StoreClient& client, const std::string& path) {
  GLIDER_ASSIGN_OR_RETURN(auto node, Lookup(client, path));
  GLIDER_RETURN_IF_ERROR(node.DeleteObject());
  GLIDER_ASSIGN_OR_RETURN(auto info, client.Delete(path));
  (void)info;
  return Status::Ok();
}

Result<std::unique_ptr<ActionWriter>> ActionNode::OpenWriter() {
  StreamOpenRequest req;
  req.slot = info_.slot.block;
  req.mode = StreamMode::kWrite;
  GLIDER_ASSIGN_OR_RETURN(
      auto resp, net::Call<StreamOpenResponse>(*conn_, kStreamOpen, req));
  client_->CountAccessIfFaas();
  return std::make_unique<ActionWriter>(*client_, conn_, resp.stream_id);
}

Result<std::unique_ptr<ActionReader>> ActionNode::OpenReader() {
  StreamOpenRequest req;
  req.slot = info_.slot.block;
  req.mode = StreamMode::kRead;
  GLIDER_ASSIGN_OR_RETURN(
      auto resp, net::Call<StreamOpenResponse>(*conn_, kStreamOpen, req));
  client_->CountAccessIfFaas();
  return std::make_unique<ActionReader>(*client_, conn_, resp.stream_id);
}

Result<std::uint64_t> ActionNode::StateBytes() {
  SlotRequest req;
  req.slot = info_.slot.block;
  GLIDER_ASSIGN_OR_RETURN(
      auto resp, net::Call<ActionStatResponse>(*conn_, kActionStat, req));
  return resp.state_bytes;
}

// ---- ActionWriter -----------------------------------------------------------

Status ActionWriter::Write(ByteSpan data) {
  if (closed_) return Status::Closed("writer closed");
  GLIDER_RETURN_IF_ERROR(deferred_error_);
  const std::size_t chunk_size = client_->options().chunk_size;
  std::size_t off = 0;
  if (pending_.empty()) {
    while (data.size() - off >= chunk_size) {
      GLIDER_RETURN_IF_ERROR(SendChunk(data.subspan(off, chunk_size)));
      off += chunk_size;
    }
  }
  pending_.Append(data.subspan(off));
  while (pending_.size() >= chunk_size) {
    GLIDER_RETURN_IF_ERROR(SendChunk(pending_.span().subspan(0, chunk_size)));
    // O(1) remainder: a slice of the same storage. The next Append detaches
    // it into fresh storage, so the sent prefix is never disturbed.
    pending_ = pending_.Slice(chunk_size);
  }
  return Status::Ok();
}

std::size_t ActionWriter::FrameChunks() const {
  return std::max<std::size_t>(1, client_->options().write_batch_chunks);
}

void ActionWriter::AppendChunk(ByteSpan chunk) {
  // Serialize straight into the pooled frame in progress: the caller's bytes
  // are copied exactly once, into the frame that goes on the wire. It is
  // sized from its first chunk, so a one-chunk frame reserves no more than
  // it sends.
  if (!frame_.has_value()) {
    frame_.emplace(BufferPool::Global(),
                   8 + 8 + FrameChunks() * (4 + chunk.size()));
    frame_->PutU64(stream_id_);
    frame_->PutU64(next_seq_);  // first_seq of the frame
  }
  frame_->PutBytes(chunk);
  ++next_seq_;
  ++frame_count_;
  bytes_written_ += chunk.size();
}

Status ActionWriter::SendChunk(ByteSpan chunk) {
  // The frame ships as one kStreamWrite once it holds write_batch_chunks
  // chunks; a partly filled one waits for more, or for Close().
  AppendChunk(chunk);
  if (frame_count_ < FrameChunks()) return Status::Ok();
  net::Message msg;
  msg.opcode = kStreamWrite;
  msg.payload = TakeFrame();
  // The server acks a frame once its last chunk is admitted, so the window
  // counts frames.
  inflight_.push_back(conn_->Call(std::move(msg)));
  return DrainInflight(/*all=*/false);
}

Buffer ActionWriter::TakeFrame() {
  Buffer frame = std::move(*frame_).Finish();
  frame_.reset();
  frame_count_ = 0;
  return frame;
}

Status ActionWriter::DrainInflight(bool all) {
  const std::size_t window = client_->options().inflight_window;
  while (!inflight_.empty() && (all || inflight_.size() > window)) {
    auto response = inflight_.front().get();
    inflight_.pop_front();
    if (!response.ok()) {
      deferred_error_ = response.status();
      return deferred_error_;
    }
    auto payload = net::ToResult(std::move(response).value());
    if (!payload.ok()) {
      deferred_error_ = payload.status();
      return deferred_error_;
    }
  }
  return Status::Ok();
}

Status ActionWriter::Close() {
  if (closed_) return deferred_error_;
  closed_ = true;
  if (deferred_error_.ok() && !pending_.empty()) {
    AppendChunk(pending_.span());
    pending_ = Buffer{};
  }
  if (deferred_error_.ok()) {
    // Every earlier frame is acked, so admitted, before the close goes: the
    // server still knows the stream, and the close's chunks and
    // end-of-stream start at the channel's next seq.
    deferred_error_ = DrainInflight(/*all=*/true);
  }
  if (deferred_error_.ok()) {
    // The close carries the frame in progress, the stream's last chunks,
    // and completes when the action method finished consuming the stream
    // (paper §4.2). With no frame in progress it is a bare close.
    Buffer close;
    if (frame_.has_value()) {
      close = TakeFrame();
    } else {
      StreamCloseRequest req;
      req.stream_id = stream_id_;
      req.seq = next_seq_;
      close = req.Encode();
    }
    deferred_error_ = net::CallVoid(*conn_, kStreamClose, close);
  }
  return deferred_error_;
}

// ---- ActionReader -----------------------------------------------------------

void ActionReader::IssueReads() {
  const std::size_t window = client_->options().inflight_window;
  while (inflight_.size() < window) {
    StreamReadRequest req;
    req.stream_id = stream_id_;
    req.seq = next_seq_++;
    net::Message msg;
    msg.opcode = kStreamRead;
    msg.payload = req.Encode();
    inflight_.push_back(conn_->Call(std::move(msg)));
  }
}

Result<Buffer> ActionReader::ReadChunk() {
  if (eof_ || closed_) return Buffer{};
  IssueReads();
  auto response = inflight_.front().get();
  inflight_.pop_front();
  GLIDER_RETURN_IF_ERROR(response.status());
  if (response->status == StatusCode::kClosed) {
    eof_ = true;
    return Buffer{};
  }
  auto payload = net::ToResult(std::move(response).value());
  GLIDER_RETURN_IF_ERROR(payload.status());
  IssueReads();
  return std::move(payload).value();
}

Status ActionReader::Close() {
  if (closed_) return Status::Ok();
  closed_ = true;
  // Outstanding pipelined reads resolve as kClosed once the server tears
  // the stream down; collect them so nothing dangles.
  StreamCloseRequest req;
  req.stream_id = stream_id_;
  req.seq = 0;
  const Status result = net::CallVoid(*conn_, kStreamClose, req);
  for (auto& fut : inflight_) {
    (void)fut.get();
  }
  inflight_.clear();
  return result;
}

}  // namespace glider::core
