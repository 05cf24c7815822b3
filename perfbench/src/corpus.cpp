#include "corpus.h"

#include "util.h"

namespace perfbench {

namespace {

constexpr int kSharedClasses = 12;

std::string boxOf(const std::string& type, int depth) {
  std::string out = type;
  for (int i = 0; i < depth; ++i) out = "Box<" + out + ">";
  return out;
}

/// The database spelling of boxOf(): a space between closing brackets.
std::string boxSpelled(const std::string& type, int depth) {
  std::string out = type;
  for (int i = 0; i < depth; ++i) out = "Box<" + out + (out.back() == '>' ? " >" : ">");
  return out;
}

std::string sharedHeader() {
  std::string src =
      "#ifndef PERFBENCH_SHARED_H\n#define PERFBENCH_SHARED_H\n"
      "#include \"CG.h\"\n#include \"vector.h\"\n"
      "template <class T>\nclass Box {\npublic:\n"
      "    Box() : v_(T()) {}\n"
      "    void put(const T& x) { v_ = x; }\n"
      "    T take() { return v_; }\n"
      "    int probe() const { return 1; }\nprivate:\n    T v_;\n};\n";
  for (int s = 0; s < kSharedClasses; ++s)
    src += "class S" + std::to_string(s) + " { public: int x; };\n";
  return src + "#endif\n";
}

}  // namespace

std::string tuSource(const TuShape& shape, int index, int nonce) {
  const std::string t = "t" + std::to_string(index);
  std::string src = "#include \"shared.h\"\n";
  for (int j = 0; j < shape.unique; ++j)
    src += "class U" + std::to_string(index) + "_" + std::to_string(j) +
           " { public: int x; };\n";
  src += "int " + t + "_f" + std::to_string(shape.chain) + "(int x) { return x; }\n";
  for (int k = shape.chain - 1; k >= 0; --k) {
    src += "int " + t + "_f" + std::to_string(k) + "(int x) { return " + t + "_f" +
           std::to_string(k + 1) + "(x + 1); }\n";
  }
  src += "int " + t + "_edit() { return " + std::to_string(nonce) + "; }\n";
  if (shape.dead) src += "int " + t + "_dead() { int y = 3; return y; }\n";
  if (shape.uninit) src += "int " + t + "_uninit() { int u; return u; }\n";
  src += "void " + t + "_driver() {\n";
  for (const int s : shape.shared) {
    const std::string id = std::to_string(s);
    src += "    Box<S" + id + "> s" + id + "; S" + id + " v" + id + "; s" + id +
           ".put(v" + id + "); s" + id + ".take();\n";
  }
  for (int j = 0; j < shape.unique; ++j) {
    const std::string u = "U" + std::to_string(index) + "_" + std::to_string(j);
    const std::string id = std::to_string(j);
    src += "    Box<" + u + "> u" + id + "; " + u + " w" + id + "; u" + id +
           ".put(w" + id + "); u" + id + ".take();\n";
  }
  const std::string inner = "U" + std::to_string(index) + "_0";
  src += "    " + boxOf(inner, shape.depth) + " deep; deep.probe();\n";
  src += "    Array<double> a(" + std::to_string(index % 7 + 2) +
         "); a.fill(1.0); dot(a, a);\n";
  src += "    vector<int> vv; vv.push_back(" + std::to_string(index) + ");\n";
  src += "    " + t + "_f0(0);\n    " + t + "_edit();\n";
  if (shape.uninit) src += "    " + t + "_uninit();\n";
  return src + "}\n";
}

namespace {

/// `n` values cycling through [lo, hi], in seeded order: each TU draws its
/// own value, and the corpus total is the same for every seed.
std::vector<int> balanced(Rng& rng, int n, int lo, int hi) {
  std::vector<int> out(n);
  for (int i = 0; i < n; ++i) out[i] = lo + i % (hi - lo + 1);
  for (int i = n - 1; i > 0; --i) std::swap(out[i], out[rng.uniform(0, i)]);
  return out;
}

}  // namespace

Corpus makeCorpus(std::uint64_t seed, int tus) {
  Rng rng(seed * 0x2545f4914f6cdd1dULL + static_cast<std::uint64_t>(tus));
  Corpus corpus;
  Expectations& ex = corpus.expect;
  corpus.files.push_back({"shared.h", sharedHeader()});
  std::string main_src;
  std::string main_body;
  const std::vector<int> shared_counts = balanced(rng, tus, 2, 6);
  const std::vector<int> unique_counts = balanced(rng, tus, 1, 4);
  const std::vector<int> depths = balanced(rng, tus, 2, 4);
  const std::vector<int> chains = balanced(rng, tus, 3, 9);
  // Planted defects: one TU in eight has an unreachable routine, one in
  // sixteen an uninitialized read (at least one of each).
  const std::vector<int> dead = balanced(rng, tus, 0, 7);
  const std::vector<int> uninit = balanced(rng, tus, 0, 15);
  for (int i = 0; i < tus; ++i) {
    TuShape shape;
    std::vector<int> pool(kSharedClasses);
    for (int s = 0; s < kSharedClasses; ++s) pool[s] = s;
    for (int s = 0; s < shared_counts[i]; ++s) {
      const int pick = rng.uniform(s, kSharedClasses - 1);
      std::swap(pool[s], pool[pick]);
      shape.shared.push_back(pool[s]);
    }
    shape.unique = unique_counts[i];
    shape.depth = depths[i];
    shape.chain = chains[i];
    shape.dead = dead[i] == 0;
    shape.uninit = uninit[i] == 0;

    const std::string t = "t" + std::to_string(i);
    for (const int s : shape.shared) ex.classes.push_back("Box<S" + std::to_string(s) + ">");
    for (int j = 0; j < shape.unique; ++j) {
      const std::string u = "U" + std::to_string(i) + "_" + std::to_string(j);
      ex.classes.push_back("Box<" + u + ">");
    }
    for (int d = 2; d <= shape.depth; ++d)
      ex.classes.push_back(boxSpelled("U" + std::to_string(i) + "_0", d));
    for (int k = 0; k <= shape.chain; ++k) {
      ex.routines.push_back(t + "_f" + std::to_string(k));
      if (k > 0) ex.calls.emplace_back(t + "_f" + std::to_string(k - 1), ex.routines.back());
    }
    ex.routines.push_back(t + "_edit");
    ex.routines.push_back(t + "_driver");
    ex.calls.emplace_back(t + "_driver", t + "_f0");
    ex.calls.emplace_back(t + "_driver", t + "_edit");
    ex.calls.emplace_back("main", t + "_driver");
    if (shape.dead) {
      ex.routines.push_back(t + "_dead");
      ex.dead.push_back(t + "_dead");
    }
    if (shape.uninit) {
      ex.routines.push_back(t + "_uninit");
      ex.uninit.push_back(t + "_uninit");
      ex.calls.emplace_back(t + "_driver", t + "_uninit");
    }
    corpus.files.push_back({"tu" + std::to_string(i) + ".cpp", tuSource(shape, i, 0)});
    corpus.shapes.push_back(std::move(shape));
    main_src += "void " + t + "_driver();\n";
    main_body += "    " + t + "_driver();\n";
  }
  main_src +=
      "int cyc_b(int n);\n"
      "int cyc_a(int n) { if (n > 0) return cyc_b(n - 1); return 0; }\n"
      "int cyc_b(int n) { return cyc_a(n); }\n"
      "int main() {\n" + main_body + "    cyc_a(3);\n    return 0;\n}\n";
  corpus.files.push_back({"main.cpp", main_src});
  ex.routines.insert(ex.routines.end(), {"cyc_a", "cyc_b", "main"});
  ex.calls.emplace_back("cyc_a", "cyc_b");
  ex.calls.emplace_back("cyc_b", "cyc_a");
  ex.calls.emplace_back("main", "cyc_a");
  ex.cycle = {"cyc_a", "cyc_b"};
  return corpus;
}

std::string krylovDriver(int n) {
  return "#include \"iostream.h\"\n#include \"CG.h\"\n\n"
         "int main() {\n"
         "    const int n = " + std::to_string(n) + ";\n"
         "    Laplace1D<double> A(n);\n"
         "    Array<double> b(n);\n"
         "    Array<double> x(n);\n"
         "    b.fill(1.0);\n"
         "    x.fill(0.0);\n"
         "    CGSolver<double> solver(4 * n, 0.000000001);\n"
         "    int iters = solver.solve(A, x, b);\n"
         "    cout << \"iterations: \" << iters << endl;\n"
         "    cout << \"residual: \" << solver.residual() << endl;\n"
         "    cout << \"x[0]: \" << x(0) << endl;\n"
         "    return 0;\n}\n";
}

}  // namespace perfbench
