// Nothing under src/, bench/ or examples/ reads the environment: no call
// of getenv or secure_getenv and no use of environ. Every mode of the
// simulator is chosen in code, where a test names it, so no variable can
// turn a comparison into an ablation or override an option a caller set.
//
// Every data member of an option struct under src/ must be assigned
// somewhere under src/, bench/, perfbench/, examples/ or tests/: a field
// that nothing sets is a constant. Tests count as setters, so a field that
// only a test sets (to reach an edge case) stays an option. Assignments
// are matched by member name, not by the struct they write.
#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace bs {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Calls `fn` with the path and text of every C++ source under
/// `root / dir`.
void for_each_source(
    const fs::path& root, const std::string& dir,
    const std::function<void(const fs::path&, const std::string&)>& fn) {
  for (const auto& entry : fs::recursive_directory_iterator(root / dir)) {
    const fs::path ext = entry.path().extension();
    if (ext == ".cpp" || ext == ".hpp") fn(entry.path(), slurp(entry.path()));
  }
}

bool word_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::size_t skip_space(std::string_view text, std::size_t at) {
  while (at < text.size() &&
         std::isspace(static_cast<unsigned char>(text[at])) != 0) {
    ++at;
  }
  return at;
}

std::size_t word_end(std::string_view text, std::size_t at) {
  while (at < text.size() && word_char(text[at])) ++at;
  return at;
}

/// `text` without its comments, and with every string and character
/// literal emptied, so that a brace or an `=` in them is not code.
std::string code_only(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  std::size_t i = 0;
  while (i < text.size()) {
    const char c = text[i];
    const bool after_word = i > 0 && word_char(text[i - 1]);
    if (text.substr(i, 2) == "//") {
      i = std::min(text.find('\n', i), text.size());
    } else if (text.substr(i, 2) == "/*") {
      const std::size_t end = text.find("*/", i + 2);
      i = end == std::string_view::npos ? text.size() : end + 2;
      out += ' ';
    } else if (c == 'R' && !after_word && text.substr(i + 1, 1) == "\"") {
      const std::size_t open = text.find('(', i);
      const std::string close =
          ")" + std::string(text.substr(i + 2, open - i - 2)) + "\"";
      const std::size_t end = text.find(close, open);
      i = end == std::string_view::npos ? text.size() : end + close.size();
      out += "\"\"";
    } else if (c == '"' || (c == '\'' && !after_word)) {
      std::size_t j = i + 1;
      while (j < text.size() && text[j] != c) j += text[j] == '\\' ? 2 : 1;
      i = j + 1;
      out += c;
      out += c;
    } else {
      out += c;
      ++i;
    }
  }
  return out;
}

/// Each environment read in `text`, in order: the word getenv,
/// secure_getenv or environ in code (not in a comment or a literal), which
/// covers calls, `std::` ones included, and reads of the array.
std::vector<std::string> env_reads_in(std::string_view text) {
  const std::string code = code_only(text);
  std::vector<std::string> out;
  for (std::size_t i = 0; i < code.size();) {
    if (!word_char(code[i])) {
      ++i;
      continue;
    }
    const std::size_t end = word_end(code, i);
    const std::string word = code.substr(i, end - i);
    if (word == "getenv" || word == "secure_getenv" || word == "environ") {
      out.push_back(word);
    }
    i = end;
  }
  return out;
}

TEST(EnvReads, ScannerFindsCallsAndEnvironOutsideCommentsAndLiterals) {
  EXPECT_EQ(env_reads_in("const char* v = std::getenv(\"BS_X\");\n"
                         "auto* s = secure_getenv(name);\n"
                         "for (char** e = environ; *e; ++e) {}\n"
                         "// getenv(\"BS_Y\") in a comment\n"
                         "log(\"getenv is not called here\");\n"
                         "my_getenv(); environment(); __environ;\n"),
            (std::vector<std::string>{"getenv", "secure_getenv", "environ"}));
}

TEST(EnvReads, NothingUnderSrcBenchOrExamplesReadsTheEnvironment) {
  const fs::path root = BS_REPO_ROOT;
  std::string found;
  for (const std::string dir : {"src", "bench", "examples"}) {
    for_each_source(root, dir,
                    [&](const fs::path& path, const std::string& text) {
                      for (const std::string& read : env_reads_in(text)) {
                        found += "\n  " +
                                 path.lexically_relative(root).string() +
                                 ": " + read;
                      }
                    });
  }
  EXPECT_TRUE(found.empty())
      << "the simulator must read no environment variable; choose the "
         "mode in code instead:"
      << found;
}

/// Index of the brace that closes the one at `open`.
std::size_t closing_brace(std::string_view code, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < code.size(); ++i) {
    if (code[i] == '{') ++depth;
    if (code[i] == '}' && --depth == 0) return i;
  }
  return code.size();
}

/// Whether `head` (the text before a `{` in a struct body) opens a function
/// body: it has a `(` outside template arguments and before any `=`.
bool opens_function(std::string_view head) {
  int angle = 0;
  for (const char c : head.substr(0, head.find('='))) {
    if (c == '<') ++angle;
    if (c == '>') --angle;
    if (c == '(' && angle == 0) return true;
  }
  return false;
}

/// Whether `decl` is the word before an access specifier's colon.
bool is_access_label(std::string_view decl) {
  const std::size_t first = skip_space(decl, 0);
  const std::string_view word =
      decl.substr(first, word_end(decl, first) - first);
  return skip_space(decl, first + word.size()) == decl.size() &&
         (word == "public" || word == "private" || word == "protected");
}

/// The member a declaration in a struct body declares, or "" when it
/// declares no data member (a static, a type, a function, an alias).
std::string member_declared(std::string decl) {
  for (std::size_t at = decl.find("[["); at != std::string::npos;
       at = decl.find("[[")) {
    decl.erase(at, decl.find("]]", at) + 2 - at);
  }
  const std::size_t first = skip_space(decl, 0);
  const std::string lead = decl.substr(first, word_end(decl, first) - first);
  for (const std::string_view skip :
       {"static", "using", "friend", "typedef", "template", "static_assert",
        "struct", "class", "enum", "union"}) {
    if (lead == skip) return "";
  }
  if (decl.find("operator") != std::string::npos) return "";
  std::string head = decl.substr(0, decl.find_first_of("={"));
  if (opens_function(head)) return "";
  head = head.substr(0, head.find('['));
  std::size_t end = head.size();
  while (end > 0 && !word_char(head[end - 1])) --end;
  std::size_t begin = end;
  while (begin > 0 && word_char(head[begin - 1])) --begin;
  return head.substr(begin, end - begin);
}

/// `Struct::field` for every data member of every option struct in `text`:
/// a struct named `*Options`, `*Config`, `*Spec`, `*Model` or `*Params`, or
/// `RetryPolicy`. One declaration declares one member.
std::vector<std::string> option_fields_in(std::string_view text) {
  const std::string code = code_only(text);
  std::vector<std::string> out;
  constexpr std::string_view kStruct = "struct ";
  for (std::size_t at = code.find(kStruct); at != std::string::npos;
       at = code.find(kStruct, at + 1)) {
    if (at > 0 && word_char(code[at - 1])) continue;
    const std::size_t name_at = skip_space(code, at + kStruct.size());
    const std::string name =
        code.substr(name_at, word_end(code, name_at) - name_at);
    const std::size_t open = skip_space(code, name_at + name.size());
    if (open >= code.size() || code[open] != '{') continue;
    bool option = name == "RetryPolicy";
    for (const std::string_view suffix :
         {"Options", "Config", "Spec", "Model", "Params"}) {
      option = option || std::string_view(name).ends_with(suffix);
    }
    if (!option) continue;
    const std::size_t close = closing_brace(code, open);
    std::string decl;
    for (std::size_t i = open + 1; i < close; ++i) {
      if (code[i] == '{') {
        const std::size_t end = closing_brace(code, i);
        if (opens_function(decl)) {
          decl.clear();
        } else {
          decl += "{}";
        }
        i = end;
      } else if (code[i] == ';') {
        const std::string member = member_declared(decl);
        if (!member.empty()) out.push_back(name + "::" + member);
        decl.clear();
      } else if (code[i] == ':' && is_access_label(decl)) {
        decl.clear();
      } else {
        decl += code[i];
      }
    }
  }
  return out;
}

/// Whether the code at `at`, just past a member name, assigns to it: an
/// `=` that is not `==`, a `.push_back(`, or a sub-member that is assigned.
bool assigns_at(std::string_view code, std::size_t at) {
  at = skip_space(code, at);
  if (at >= code.size()) return false;
  if (code[at] == '=') return at + 1 == code.size() || code[at + 1] != '=';
  if (code.substr(at, 11) == ".push_back(") return true;
  if (code[at] != '.') return false;
  const std::size_t end = word_end(code, at + 1);
  return end > at + 1 && assigns_at(code, end);
}

/// Member names that `text` assigns: `.f =`, `->f =`, `.f.g =` or
/// `.f.push_back(`. Designated initializers are the `.f =` form.
std::set<std::string> assigned_in(std::string_view text) {
  const std::string code = code_only(text);
  std::set<std::string> out;
  for (std::size_t i = 0; i < code.size(); ++i) {
    std::size_t start = 0;
    if (code[i] == '.') {
      start = i + 1;
    } else if (code.compare(i, 2, "->") == 0) {
      start = i + 2;
    } else {
      continue;
    }
    const std::size_t end = word_end(code, start);
    if (end > start && assigns_at(code, end)) {
      out.emplace(code.substr(start, end - start));
    }
  }
  return out;
}

TEST(OptionFields, ScannersFindDataMembersAndAssignmentsOnly) {
  EXPECT_EQ(option_fields_in("struct FooOptions {\n"
                             "  int a{1};  // int not_a{2};\n"
                             "  std::function<void(int)> b;\n"
                             "  std::string c = \"x{;\";\n"
                             " public:\n"
                             "  std::vector<int> d;\n"
                             "  static constexpr int kE = 3;\n"
                             "  [[nodiscard]] bool f() const { return a; }\n"
                             "  int g(int x) const;\n"
                             "  struct Inner { int h; };\n"
                             "  rpc::NodeSpec i{.nic_bps = 1};\n"
                             "};\n"
                             "struct Helper { int j; };\n"
                             "/* struct BarConfig { int k; }; */\n"
                             "struct RetryPolicy { double l{2.0}; };\n"),
            (std::vector<std::string>{"FooOptions::a", "FooOptions::b",
                                      "FooOptions::c", "FooOptions::d",
                                      "FooOptions::i", "RetryPolicy::l"}));
  EXPECT_EQ(assigned_in("o.a = 1;\n"
                        "p->b = 2;\n"
                        "o.c.x = 3;\n"
                        "o.d.push_back(4);\n"
                        "Opts{.e = 5};\n"
                        "if (o.f == 6 || o.g <= 7) {}\n"
                        "use(o.h.size());\n"
                        "// o.i = 8;\n"
                        "log(\"o.j = 9\");\n"),
            (std::set<std::string>{"a", "b", "c", "x", "d", "e"}));
}

TEST(OptionFields, EveryOptionFieldIsSetSomewhere) {
  const fs::path root = BS_REPO_ROOT;
  std::vector<std::string> fields;
  for_each_source(root, "src", [&](const fs::path&, const std::string& text) {
    const std::vector<std::string> found = option_fields_in(text);
    fields.insert(fields.end(), found.begin(), found.end());
  });
  ASSERT_FALSE(fields.empty());
  std::set<std::string> assigned;
  for (const std::string dir :
       {"src", "bench", "perfbench", "examples", "tests"}) {
    for_each_source(root, dir, [&](const fs::path&, const std::string& text) {
      const std::set<std::string> found = assigned_in(text);
      assigned.insert(found.begin(), found.end());
    });
  }
  std::set<std::string> never_set;
  for (const std::string& field : fields) {
    if (!assigned.contains(field.substr(field.rfind("::") + 2))) {
      never_set.insert(field);
    }
  }
  std::string names;
  for (const std::string& field : never_set) names += "\n  " + field;
  EXPECT_TRUE(never_set.empty())
      << never_set.size() << " of " << fields.size()
      << " option fields are set nowhere; make them constants:" << names;
}

}  // namespace
}  // namespace bs
