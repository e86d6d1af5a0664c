// net::Client: the blocking client side of the EMOGI wire protocol.
//
// Connect() dials the server (Unix path or host:port), performs the
// Hello/HelloAck handshake declaring this client's tenant identity and
// DRR weight, and then Send()/ReadResponse() exchange frames. Responses
// arrive in the server's *dispatch* order, not submission order
// (immediate rejections overtake queued work), so callers correlate by
// the echoed request id -- Submit() does this for the one-shot case,
// and replay harnesses pipeline Send()s and match ids on the way back.

#ifndef EMOGI_NET_CLIENT_H_
#define EMOGI_NET_CLIENT_H_

#include <cstdint>
#include <string>

#include "net/protocol.h"
#include "net/socket.h"

namespace emogi::net {

class Client {
 public:
  Client() = default;
  ~Client() { Close(false); }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Dials, handshakes, fills server_info(). False with *error set on
  // connect failure, handshake rejection (the server's typed error
  // message lands in *error), or a malformed server frame.
  bool Connect(const std::string& address, const std::string& tenant,
               std::uint32_t weight, std::string* error);

  bool connected() const { return fd_ >= 0; }
  const HelloAckMsg& server_info() const { return server_info_; }

  // Writes one request frame (blocking until the kernel accepts it).
  bool Send(std::uint64_t id, const runtime::Request& request,
            std::string* error);

  // Blocks for the next response frame. False on a server kError frame
  // (typed message in *error), EOF, or a malformed frame; after false
  // the connection is closed.
  bool ReadResponse(ResponseMsg* out, std::string* error);

  // One-shot convenience: Send + ReadResponse, id-checked.
  bool Submit(std::uint64_t id, const runtime::Request& request,
              ResponseMsg* out, std::string* error);

  // `send_goodbye` flushes a kGoodbye frame first so the server drains
  // this connection deliberately rather than seeing a bare EOF.
  void Close(bool send_goodbye);

 private:
  bool WriteAll(const std::vector<std::uint8_t>& bytes, std::string* error);
  // Reads until one whole frame decodes; false on EOF/garbage.
  bool ReadFrame(Frame* frame, std::string* error);

  int fd_ = -1;
  std::vector<std::uint8_t> rbuf_;
  HelloAckMsg server_info_;
};

}  // namespace emogi::net

#endif  // EMOGI_NET_CLIENT_H_
