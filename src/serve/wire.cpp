#include "serve/wire.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace ssmwn::serve {

namespace {

[[noreturn]] void fail(const char* what) {
  throw std::runtime_error(std::string("wire: ") + what + ": " +
                           std::strerror(errno));
}

/// Reads exactly `size` bytes. Returns false only when EOF arrives
/// before the FIRST byte (a clean close between frames when
/// `eof_ok_at_start`); EOF later is a torn frame and throws. With a
/// `stop_fd`, reads never block: when `fd` runs dry the wait covers
/// `stop_fd` too, and a stop before the first byte reads as a clean
/// close (when `eof_ok_at_start`), after it as a torn frame.
bool read_exact(int fd, void* buffer, std::size_t size, bool eof_ok_at_start,
                int stop_fd) {
  auto* out = static_cast<char*>(buffer);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n =
        stop_fd < 0 ? ::read(fd, out + got, size - got)
                    : ::recv(fd, out + got, size - got, MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (stop_fd >= 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (await_input(fd, stop_fd)) continue;
        if (got == 0 && eof_ok_at_start) return false;
        throw std::runtime_error("wire: stopped mid-frame");
      }
      fail("read failed");
    }
    if (n == 0) {
      if (got == 0 && eof_ok_at_start) return false;
      throw std::runtime_error("wire: connection closed mid-frame");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

void write_exact(int fd, const void* buffer, std::size_t size) {
  const auto* data = static_cast<const char*>(buffer);
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::write(fd, data + sent, size - sent);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("write failed");
    }
    sent += static_cast<std::size_t>(n);
  }
}

}  // namespace

bool await_input(int fd, int stop_fd) {
  for (;;) {
    pollfd fds[2];
    fds[0] = {fd, POLLIN, 0};
    fds[1] = {stop_fd, POLLIN, 0};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      fail("poll failed");
    }
    if (fds[1].revents != 0) return false;
    if (fds[0].revents != 0) return true;
  }
}

bool read_frame(int fd, Frame& out, int stop_fd) {
  unsigned char prefix[4];
  if (!read_exact(fd, prefix, sizeof(prefix), /*eof_ok_at_start=*/true,
                  stop_fd)) {
    return false;
  }
  const std::uint32_t length =
      (static_cast<std::uint32_t>(prefix[0]) << 24) |
      (static_cast<std::uint32_t>(prefix[1]) << 16) |
      (static_cast<std::uint32_t>(prefix[2]) << 8) |
      static_cast<std::uint32_t>(prefix[3]);
  if (length == 0) {
    throw std::runtime_error("wire: zero-length frame (missing type byte)");
  }
  if (length > kMaxFramePayload) {
    throw std::runtime_error("wire: frame exceeds maximum payload size");
  }
  unsigned char type = 0;
  read_exact(fd, &type, 1, /*eof_ok_at_start=*/false, stop_fd);
  out.type = static_cast<FrameType>(type);
  out.body.resize(length - 1);
  if (!out.body.empty()) {
    read_exact(fd, out.body.data(), out.body.size(),
               /*eof_ok_at_start=*/false, stop_fd);
  }
  return true;
}

bool read_frame(int fd, Frame& out) { return read_frame(fd, out, -1); }

void write_frame(int fd, FrameType type, std::string_view body) {
  if (body.size() + 1 > kMaxFramePayload) {
    throw std::runtime_error("wire: frame exceeds maximum payload size");
  }
  const auto length = static_cast<std::uint32_t>(body.size() + 1);
  // One contiguous buffer per frame: a single write keeps frames intact
  // on the wire even if several threads ever shared a descriptor.
  std::string frame;
  frame.reserve(4 + length);
  frame.push_back(static_cast<char>((length >> 24) & 0xffu));
  frame.push_back(static_cast<char>((length >> 16) & 0xffu));
  frame.push_back(static_cast<char>((length >> 8) & 0xffu));
  frame.push_back(static_cast<char>(length & 0xffu));
  frame.push_back(static_cast<char>(type));
  frame.append(body);
  write_exact(fd, frame.data(), frame.size());
}

}  // namespace ssmwn::serve
