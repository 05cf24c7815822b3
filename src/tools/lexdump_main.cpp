// lexdump: dumps the raw token stream of a source file, one token per
// line. The --mode flag selects the lexing strategy:
//
//   --mode=incremental   RawLexer::next() in a loop (the reference path)
//   --mode=batch         RawLexer::lexAll() (the zero-allocation fast path)
//
// The two modes must produce byte-identical dumps for any input; the CI
// frontend gate (scripts/ci.sh) diffs them over the full corpus under
// ASan+UBSan. Output format: kind<TAB>line:col<TAB>flags<TAB>text.
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "lex/lexer.h"
#include "support/diagnostics.h"
#include "support/source_manager.h"
#include "support/token_arena.h"

namespace {

constexpr const char* kUsage =
    "usage: lexdump <file> [--mode=batch|incremental]\n"
    "  dumps the raw token stream, one token per line; both modes must\n"
    "  produce identical output (checked by scripts/ci.sh)\n";

const char* kindName(pdt::lex::TokenKind k) {
  using pdt::lex::TokenKind;
  switch (k) {
    case TokenKind::Identifier: return "ident";
    case TokenKind::Keyword: return "kw";
    case TokenKind::IntLiteral: return "int";
    case TokenKind::FloatLiteral: return "float";
    case TokenKind::CharLiteral: return "char";
    case TokenKind::StringLiteral: return "str";
    case TokenKind::Punct: return "punct";
    case TokenKind::HeaderName: return "header";
    case TokenKind::End: return "eof";
  }
  return "?";
}

void dump(std::ostream& os, const pdt::lex::Token& t) {
  os << kindName(t.kind) << '\t' << t.location.line << ':'
     << t.location.column << '\t' << (t.start_of_line ? 'L' : '-')
     << (t.leading_space ? 'S' : '-') << '\t' << t.text << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  std::string input;
  std::string mode = "incremental";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--mode=", 0) == 0) {
      mode = arg.substr(7);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "lexdump: unknown option '" << arg << "'\n" << kUsage;
      return 2;
    } else if (input.empty()) {
      input = arg;
    } else {
      std::cerr << kUsage;
      return 2;
    }
  }
  if (input.empty() || (mode != "batch" && mode != "incremental")) {
    std::cerr << kUsage;
    return 2;
  }

  pdt::SourceManager sm;
  const auto file = sm.loadFile(input);
  if (!file) {
    std::cerr << "lexdump: cannot open '" << input << "'\n";
    return 1;
  }

  pdt::DiagnosticEngine diags;
  pdt::TokenArena arena;
  pdt::lex::RawLexer lexer(*file, sm.content(*file), diags, &arena);

  std::ostringstream out;
  std::uint64_t count = 0;
  if (mode == "batch") {
    std::vector<pdt::lex::Token> tokens;
    lexer.lexAll(tokens);
    for (const auto& t : tokens) {
      if (t.isEnd()) break;
      dump(out, t);
      ++count;
    }
  } else {
    for (auto t = lexer.next(); !t.isEnd(); t = lexer.next()) {
      dump(out, t);
      ++count;
    }
  }
  std::cout << out.str();
  std::cerr << "lexdump: " << count << " tokens (" << mode << ")\n";
  return 0;
}
