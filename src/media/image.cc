#include "media/image.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <cstring>

#include "support/io.h"

namespace ule {
namespace media {

double Image::SampleClamped(double x, double y) const {
  const int x0 = static_cast<int>(std::floor(x));
  const int y0 = static_cast<int>(std::floor(y));
  return Bilinear(at_clamped(x0, y0), at_clamped(x0 + 1, y0),
                  at_clamped(x0, y0 + 1), at_clamped(x0 + 1, y0 + 1), x - x0,
                  y - y0);
}

void Image::FillRect(int x, int y, int w, int h, uint8_t v) {
  const int x1 = std::min(x + w, width_);
  const int y1 = std::min(y + h, height_);
  for (int yy = std::max(0, y); yy < y1; ++yy) {
    for (int xx = std::max(0, x); xx < x1; ++xx) set(xx, yy, v);
  }
}

Bytes Image::ToPgm() const {
  std::string header = "P5\n" + std::to_string(width_) + " " +
                       std::to_string(height_) + "\n255\n";
  Bytes out = ToBytes(header);
  out.insert(out.end(), pixels_.begin(), pixels_.end());
  return out;
}

namespace {

// Parses "P5\n<w> <h>\n<max>\n" style headers with arbitrary whitespace and
// '#' comments. Returns the offset of the first pixel byte.
Result<size_t> ParseNetpbmHeader(BytesView data, const char* magic, int* w,
                                 int* h, int* maxval, bool has_maxval) {
  size_t pos = 0;
  auto skip_space = [&]() {
    while (pos < data.size()) {
      if (std::isspace(data[pos])) {
        ++pos;
      } else if (data[pos] == '#') {
        while (pos < data.size() && data[pos] != '\n') ++pos;
      } else {
        break;
      }
    }
  };
  if (data.size() < 2 || data[0] != magic[0] || data[1] != magic[1]) {
    return Status::Corruption(std::string("not a ") + magic + " image");
  }
  pos = 2;
  auto read_int = [&]() -> Result<int> {
    skip_space();
    int v = 0;
    bool any = false;
    while (pos < data.size() && std::isdigit(data[pos])) {
      v = v * 10 + (data[pos] - '0');
      ++pos;
      any = true;
    }
    if (!any) return Status::Corruption("bad netpbm header");
    return v;
  };
  ULE_ASSIGN_OR_RETURN(*w, read_int());
  ULE_ASSIGN_OR_RETURN(*h, read_int());
  if (has_maxval) {
    ULE_ASSIGN_OR_RETURN(*maxval, read_int());
  }
  if (pos >= data.size() || !std::isspace(data[pos])) {
    return Status::Corruption("bad netpbm header terminator");
  }
  ++pos;  // single whitespace after header
  return pos;
}

}  // namespace

Result<Image> Image::FromPgm(BytesView data) {
  int w, h, maxval = 255;
  ULE_ASSIGN_OR_RETURN(size_t pos,
                       ParseNetpbmHeader(data, "P5", &w, &h, &maxval, true));
  if (w <= 0 || h <= 0 || maxval != 255) {
    return Status::Corruption("unsupported PGM geometry");
  }
  const size_t need = static_cast<size_t>(w) * h;
  if (data.size() - pos < need) return Status::Corruption("truncated PGM");
  Image img(w, h);
  std::copy(data.begin() + pos, data.begin() + pos + need,
            img.pixels_.begin());
  return img;
}

Bytes Image::ToPbm() const {
  std::string header = "P4\n" + std::to_string(width_) + " " +
                       std::to_string(height_) + "\n";
  Bytes out = ToBytes(header);
  const size_t row_bytes = (static_cast<size_t>(width_) + 7) / 8;
  const size_t start = out.size();
  out.resize(start + row_bytes * height_);
  for (int y = 0; y < height_; ++y) {
    const uint8_t* row = pixels_.data() + static_cast<size_t>(y) * width_;
    uint8_t* dst = out.data() + start + static_cast<size_t>(y) * row_bytes;
    // Eight pixels per output byte, MSB first; bits past the row end are 0.
    for (int x = 0; x < width_; x += 8) {
      const int n = std::min(8, width_ - x);
      uint8_t byte = 0;
      for (int i = 0; i < n; ++i) {
        byte |= static_cast<uint8_t>((row[x + i] < 128 ? 1 : 0) << (7 - i));
      }
      *dst++ = byte;
    }
  }
  return out;
}

Result<Image> Image::FromPbm(BytesView data) {
  int w, h, unused = 0;
  ULE_ASSIGN_OR_RETURN(size_t pos,
                       ParseNetpbmHeader(data, "P4", &w, &h, &unused, false));
  if (w <= 0 || h <= 0) return Status::Corruption("bad PBM geometry");
  const size_t row_bytes = (static_cast<size_t>(w) + 7) / 8;
  const size_t need = row_bytes * h;
  if (data.size() - pos < need) return Status::Corruption("truncated PBM");
  // Each packed byte expands to its eight pixels through one table row.
  static const auto kUnpack = [] {
    std::array<std::array<uint8_t, 8>, 256> table{};
    for (int byte = 0; byte < 256; ++byte) {
      for (int i = 0; i < 8; ++i) {
        table[byte][i] = ((byte >> (7 - i)) & 1) ? 0 : 255;
      }
    }
    return table;
  }();
  Image img(w, h);
  for (int y = 0; y < h; ++y) {
    const uint8_t* src = data.data() + pos + static_cast<size_t>(y) * row_bytes;
    uint8_t* row = img.pixels_.data() + static_cast<size_t>(y) * w;
    for (int x = 0; x < w; x += 8) {
      std::memcpy(row + x, kUnpack[*src++].data(), std::min(8, w - x));
    }
  }
  return img;
}

Status Image::SavePgm(const std::string& path) const {
  return WriteFileBytes(path, ToPgm());
}

Result<Image> Image::LoadPgm(const std::string& path) {
  ULE_ASSIGN_OR_RETURN(Bytes data, ReadFileBytes(path));
  return FromPgm(data);
}

Status Image::SavePbm(const std::string& path) const {
  return WriteFileBytes(path, ToPbm());
}

Result<Image> Image::LoadPbm(const std::string& path) {
  ULE_ASSIGN_OR_RETURN(Bytes data, ReadFileBytes(path));
  return FromPbm(data);
}

}  // namespace media
}  // namespace ule
