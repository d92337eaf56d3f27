// The README's "Simulator knobs" table must name exactly the BS_* variables
// the simulator reads: every env_switch / env_choice call under src/ whose
// first argument is a "BS_..." string literal. A knob added to the code
// without a README row, or a row left behind by a deleted knob, fails here.
#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <string_view>

namespace bs {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Names passed as a "BS_..." literal first argument to env_switch or
/// env_choice in `text`.
std::set<std::string> knobs_read_in(std::string_view text) {
  std::set<std::string> out;
  for (const std::string_view fn : {"env_switch(", "env_choice("}) {
    for (std::size_t at = text.find(fn); at != std::string_view::npos;
         at = text.find(fn, at + 1)) {
      std::size_t i = at + fn.size();
      while (i < text.size() &&
             std::isspace(static_cast<unsigned char>(text[i])) != 0) {
        ++i;
      }
      if (text.substr(i, 4) != "\"BS_") continue;
      const std::size_t end = text.find('"', i + 1);
      out.emplace(text.substr(i + 1, end - i - 1));
    }
  }
  return out;
}

/// Names in the first column of the table under "### Simulator knobs", up
/// to the next heading.
std::set<std::string> knobs_in_readme(std::string_view readme) {
  std::set<std::string> out;
  const std::size_t at = readme.find("### Simulator knobs");
  if (at == std::string_view::npos) return out;
  const std::size_t end = readme.find("\n#", at + 1);
  std::istringstream section(std::string(readme.substr(at, end - at)));
  constexpr std::string_view kRow = "| `BS_";
  for (std::string line; std::getline(section, line);) {
    if (line.compare(0, kRow.size(), kRow) != 0) continue;
    const std::size_t name_end = line.find('`', 3);
    out.insert(line.substr(3, name_end - 3));
  }
  return out;
}

TEST(ReadmeKnobs, ScannersFindLiteralKnobsOnly) {
  EXPECT_EQ(knobs_read_in("env_switch(\"BS_A\", true);\n"
                          "env_choice(\n    \"BS_B\", {\"x\"});\n"
                          "env_choice(name, {\"x\"});\n"
                          "env_switch(\"NOT_A_KNOB\", true);\n"),
            (std::set<std::string>{"BS_A", "BS_B"}));
  EXPECT_EQ(knobs_in_readme("### Simulator knobs\n\n"
                            "| env var | values | effect |\n"
                            "|---|---|---|\n"
                            "| `BS_A` | `on` | a |\n"
                            "\n## Next section\n"
                            "| `BS_Z` | `on` | not a knob row |\n"),
            (std::set<std::string>{"BS_A"}));
}

TEST(ReadmeKnobs, TableNamesExactlyTheKnobsReadUnderSrc) {
  const fs::path root = BS_REPO_ROOT;
  std::set<std::string> read;
  for (const auto& entry : fs::recursive_directory_iterator(root / "src")) {
    const fs::path ext = entry.path().extension();
    if (ext != ".cpp" && ext != ".hpp") continue;
    const std::set<std::string> found = knobs_read_in(slurp(entry.path()));
    read.insert(found.begin(), found.end());
  }
  ASSERT_FALSE(read.empty());
  EXPECT_EQ(knobs_in_readme(slurp(root / "README.md")), read);
}

}  // namespace
}  // namespace bs
