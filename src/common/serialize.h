// Little-endian binary (de)serialization for index persistence.
//
// Writers buffer into an internal string flushed to disk on Close; readers
// load the file once and deserialize with bounds checking. All failures are
// reported through Status (never exceptions).

#ifndef CLOUDWALKER_COMMON_SERIALIZE_H_
#define CLOUDWALKER_COMMON_SERIALIZE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/status.h"

namespace cloudwalker {

/// Serializes primitives and trivially-copyable vectors into a byte buffer.
class BinaryWriter {
 public:
  BinaryWriter() = default;

  /// Appends raw bytes.
  void WriteBytes(const void* data, size_t size) {
    if (size == 0) return;  // empty vectors may hand us a null pointer
    buffer_.append(static_cast<const char*>(data), size);
  }

  /// Appends one trivially copyable value.
  template <typename T>
  void Write(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteBytes(&value, sizeof(T));
  }

  /// Appends a length-prefixed string.
  void WriteString(const std::string& s) {
    Write<uint64_t>(s.size());
    WriteBytes(s.data(), s.size());
  }

  /// Appends a length-prefixed vector of trivially copyable elements.
  template <typename T>
  void WriteVector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Write<uint64_t>(v.size());
    WriteBytes(v.data(), v.size() * sizeof(T));
  }

  /// The accumulated bytes.
  const std::string& buffer() const { return buffer_; }

  /// Writes the buffer to `path`, truncating any existing file.
  Status Flush(const std::string& path) const;

 private:
  std::string buffer_;
};

/// Bounds-checked reader over an in-memory byte buffer.
class BinaryReader {
 public:
  /// Wraps an existing buffer (not copied; must outlive the reader).
  explicit BinaryReader(const std::string& buffer)
      : data_(buffer.data()), size_(buffer.size()) {}

  /// Loads an entire file into `*buffer` (caller keeps it alive) and returns
  /// a reader over it.
  static Status LoadFile(const std::string& path, std::string* buffer);

  /// Reads one trivially copyable value.
  template <typename T>
  Status Read(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (pos_ + sizeof(T) > size_) {
      return Status::OutOfRange("BinaryReader: truncated input");
    }
    std::memcpy(out, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::Ok();
  }

  /// Reads a length-prefixed string.
  Status ReadString(std::string* out);

  /// Reads a length-prefixed vector of trivially copyable elements.
  template <typename T>
  Status ReadVector(std::vector<T>* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t n = 0;
    CW_RETURN_IF_ERROR(Read(&n));
    if (n > (size_ - pos_) / sizeof(T)) {  // no overflow in n * sizeof(T)
      return Status::OutOfRange("BinaryReader: truncated vector");
    }
    out->resize(n);
    if (n > 0) {  // data() of an empty vector may be null (UB for memcpy)
      std::memcpy(out->data(), data_ + pos_, n * sizeof(T));
    }
    pos_ += n * sizeof(T);
    return Status::Ok();
  }

  /// Bytes consumed so far.
  size_t position() const { return pos_; }

  /// True when every byte has been consumed.
  bool AtEnd() const { return pos_ == size_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace cloudwalker

#endif  // CLOUDWALKER_COMMON_SERIALIZE_H_
