#include "serve/journal.hpp"

#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/error.hpp"
#include "util/failpoint.hpp"

namespace spmap {

namespace {

/// Lazily built reflected CRC-32 table (polynomial 0xedb88320).
const std::array<std::uint32_t, 256>& crc_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

std::string crc_hex(std::uint32_t crc) {
  char buf[9];
  std::snprintf(buf, sizeof buf, "%08x", crc);
  return std::string(buf, 8);
}

/// Parses exactly 8 lower-case hex chars; returns false on anything else.
bool parse_crc_hex(const std::string& text, std::uint32_t& out) {
  if (text.size() != 8) return false;
  std::uint32_t value = 0;
  for (char ch : text) {
    std::uint32_t digit;
    if (ch >= '0' && ch <= '9') {
      digit = static_cast<std::uint32_t>(ch - '0');
    } else if (ch >= 'a' && ch <= 'f') {
      digit = static_cast<std::uint32_t>(ch - 'a') + 10;
    } else {
      return false;
    }
    value = (value << 4) | digit;
  }
  out = value;
  return true;
}

void fsync_file(std::FILE* file, const std::string& path) {
  if (std::fflush(file) != 0) {
    throw Error("journal: flush of " + path + " failed: " +
                std::strerror(errno));
  }
  if (::fsync(::fileno(file)) != 0) {
    throw Error("journal: fsync of " + path + " failed: " +
                std::strerror(errno));
  }
}

}  // namespace

std::uint32_t crc32_ieee(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  const auto& table = crc_table();
  std::uint32_t crc = 0xffffffffu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

std::string journal_line(const Json& record) {
  const std::string body = record.dump();
  return crc_hex(crc32_ieee(body.data(), body.size())) + " " + body + "\n";
}

bool parse_journal_line(const std::string& line, Json& out,
                        std::string& error) {
  // "<crc8hex> <json>" — a shorter line is a torn tail by construction.
  if (line.size() < 10 || line[8] != ' ') {
    error = "malformed record framing";
    return false;
  }
  std::uint32_t stored = 0;
  if (!parse_crc_hex(line.substr(0, 8), stored)) {
    error = "malformed record checksum";
    return false;
  }
  const char* body = line.data() + 9;
  const std::size_t body_size = line.size() - 9;
  if (crc32_ieee(body, body_size) != stored) {
    error = "record checksum mismatch";
    return false;
  }
  Json parsed;
  try {
    parsed = Json::parse(std::string(body, body_size));
  } catch (const Error& e) {
    error = std::string("record is not valid JSON: ") + e.what();
    return false;
  }
  if (!parsed.is_object()) {
    error = "record is not a JSON object";
    return false;
  }
  out = std::move(parsed);
  return true;
}

JournalReplay replay_journal(const std::string& path) {
  JournalReplay replay;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    if (errno == ENOENT) return replay;  // a missing journal is empty
    throw Error("journal: cannot open " + path + ": " +
                std::strerror(errno));
  }
  std::string line;
  int ch;
  bool saw_newline = true;
  while (true) {
    line.clear();
    saw_newline = false;
    while ((ch = std::fgetc(file)) != EOF) {
      if (ch == '\n') {
        saw_newline = true;
        break;
      }
      line.push_back(static_cast<char>(ch));
    }
    if (line.empty() && !saw_newline) break;  // clean EOF
    if (!saw_newline) {
      // Torn tail: the last record lost its newline mid-write.
      replay.tail_dropped = true;
      replay.tail_error = "truncated final record";
      break;
    }
    Json record;
    std::string error;
    if (!parse_journal_line(line, record, error)) {
      replay.tail_dropped = true;
      replay.tail_error = error;
      break;
    }
    replay.records.push_back(std::move(record));
    replay.committed_bytes += line.size() + 1;
  }
  if (std::ferror(file)) {
    std::fclose(file);
    throw Error("journal: read error on " + path);
  }
  std::fclose(file);
  return replay;
}

Journal::Journal(std::string path) : path_(std::move(path)) {
  open_append();
}

Journal::~Journal() { close_file(); }

void Journal::open_append() {
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) {
    throw Error("journal: cannot open " + path_ + " for append: " +
                std::strerror(errno));
  }
}

void Journal::close_file() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

void Journal::append_line(const std::string& line, bool sync) {
  if (failpoint("journal.append")) {
    throw Error("journal: injected append failure (failpoint)");
  }
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size()) {
    throw Error("journal: write to " + path_ + " failed: " +
                std::strerror(errno));
  }
  failpoint("journal.sync");  // crash here = torn/unsynced tail
  if (sync) fsync_file(file_, path_);
  ++appended_;
}

void Journal::rewrite(const std::vector<std::string>& lines) {
  const std::string tmp = path_ + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (out == nullptr) {
    throw Error("journal: cannot open " + tmp + ": " + std::strerror(errno));
  }
  for (const std::string& line : lines) {
    if (std::fwrite(line.data(), 1, line.size(), out) != line.size()) {
      std::fclose(out);
      std::remove(tmp.c_str());
      throw Error("journal: write to " + tmp + " failed: " +
                  std::strerror(errno));
    }
  }
  try {
    fsync_file(out, tmp);
  } catch (...) {
    std::fclose(out);
    std::remove(tmp.c_str());
    throw;
  }
  std::fclose(out);
  close_file();
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    const int saved = errno;
    std::remove(tmp.c_str());
    open_append();
    throw Error("journal: rename " + tmp + " -> " + path_ + " failed: " +
                std::strerror(saved));
  }
  open_append();
  appended_ = 0;
}

}  // namespace spmap
