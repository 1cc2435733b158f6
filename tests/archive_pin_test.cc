// Pins the archived artifacts to fixed hashes: the DynaRISC interpreter
// (the VeRisc program the Bootstrap embeds), the MODecode and DBDecode
// images, and the Bootstrap text rendered from them. Engine-side work on
// the nested-emulation path (translation, caching, dispatch) must never
// move one of these bytes: the Bootstrap is what a future implementer
// reads, and core routes a restore through the fast nested path only when
// the parsed interpreter matches the in-tree one word for word.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "decoders/dbdecode.h"
#include "decoders/modecode.h"
#include "olonys/bootstrap.h"
#include "olonys/dynarisc_in_verisc.h"
#include "support/crc32.h"

namespace ule {
namespace {

uint64_t Fnv1a64(BytesView bytes) {
  uint64_t h = 1469598103934665603ull;
  for (uint8_t byte : bytes) {
    h ^= byte;
    h *= 1099511628211ull;
  }
  return h;
}

Bytes WordsLe(const std::vector<uint32_t>& words) {
  Bytes out;
  out.reserve(words.size() * 4);
  for (uint32_t w : words) {
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<uint8_t>(w >> (8 * i)));
    }
  }
  return out;
}

TEST(ArchivePinTest, DynaRiscInterpreterWords) {
  const verisc::Program& interp = olonys::DynaRiscInterpreter();
  const Bytes bytes = WordsLe(interp.words);
  EXPECT_EQ(interp.words.size(), 2197u);
  EXPECT_EQ(Fnv1a64(bytes), 0x6bfcf6da31e410d8ull);
  EXPECT_EQ(Crc32(bytes), 0xef27a62fu);
}

TEST(ArchivePinTest, DecoderImages) {
  const dynarisc::Program& mo = decoders::ModecodeProgram();
  EXPECT_EQ(mo.image.size(), 2630u);
  EXPECT_EQ(mo.entry, 0);
  EXPECT_EQ(Fnv1a64(mo.image), 0xdf268f78f05367dbull);
  EXPECT_EQ(Crc32(mo.image), 0x09afe7aau);

  const dynarisc::Program& db = decoders::DbDecodeProgram();
  EXPECT_EQ(db.image.size(), 946u);
  EXPECT_EQ(db.entry, 0);
  EXPECT_EQ(Fnv1a64(db.image), 0xd3cdc1f69f11405eull);
  EXPECT_EQ(Crc32(db.image), 0xf6434866u);
}

TEST(ArchivePinTest, BootstrapText) {
  const std::string text = olonys::GenerateBootstrapText(
      olonys::DynaRiscInterpreter(), decoders::ModecodeProgram());
  const BytesView bytes{reinterpret_cast<const uint8_t*>(text.data()),
                        text.size()};
  EXPECT_EQ(text.size(), 28276u);
  EXPECT_EQ(Fnv1a64(bytes), 0x6d112dbda65ff531ull);
  EXPECT_EQ(Crc32(bytes), 0xa9a63983u);
}

}  // namespace
}  // namespace ule
