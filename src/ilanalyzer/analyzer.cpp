#include "ilanalyzer/analyzer.h"

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "ast/walk.h"
#include "support/trace.h"

namespace pdt::ilanalyzer {

using namespace ast;

namespace {

/// Snapshots a decl -> id map ordered by id. The emit passes must not
/// iterate the unordered_map directly: its order depends on pointer
/// hashes (i.e. heap addresses), and emission creates referenced type
/// items on demand, so hash-order iteration makes the PDB output vary
/// with allocator state — in particular between the main thread and the
/// worker threads of the parallel driver. Ids were assigned by the
/// deterministic collect* AST traversals, so id order is stable.
template <typename K>
std::vector<std::pair<K, std::uint32_t>> byId(
    const std::unordered_map<K, std::uint32_t>& map) {
  std::vector<std::pair<K, std::uint32_t>> items(map.begin(), map.end());
  std::sort(items.begin(), items.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  return items;
}

/// The record `found` points at, for writing. `found` is what one of the
/// database's find*() lookups returned, so it points into `records`.
template <typename T>
T& recordAt(std::vector<T>& records, const T* found) {
  return records[static_cast<std::size_t>(found - records.data())];
}

}  // namespace

IlAnalyzer::IlAnalyzer(const frontend::CompileResult& result,
                       const SourceManager& sm, AnalyzerOptions options)
    : result_(result), sm_(sm), options_(options) {}

pdb::PdbFile analyze(const frontend::CompileResult& result,
                     const SourceManager& sm, AnalyzerOptions options) {
  PDT_TRACE_SCOPE("il.analyze", sm.name(result.main_file));
  pdb::PdbFile out = IlAnalyzer(result, sm, options).analyze();
  trace::count(trace::Counter::IlItems, out.itemCount());
  return out;
}

pdb::PdbFile IlAnalyzer::analyze() {
  const TranslationUnitDecl* tu = result_.ast->translationUnit();
  // Separate traversals, as in the paper: ids are assigned kind by kind so
  // each item kind can reference the others.
  collectFiles();
  collectNamespaces(tu);
  collectTemplates(tu);  // the template list built "in advance"
  collectClasses(tu);
  collectEnums(tu);
  collectRoutines(tu);
  emitTemplates();
  emitClasses();
  emitRoutines();
  emitNamespaces();
  emitMacros();
  emitDefUse();
  out_.reindex();
  return std::move(out_);
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

bool IlAnalyzer::isPattern(const Decl* d) const {
  if (const auto* cls = d->as<ClassDecl>()) {
    return cls->describing_template != nullptr && cls->instantiated_from == nullptr;
  }
  if (const auto* fn = d->as<FunctionDecl>()) {
    if (fn->describing_template != nullptr && fn->instantiated_from == nullptr &&
        !fn->is_specialization)
      return true;
    // Members of a pattern class are patterns too.
    if (const ClassDecl* owner = fn->memberOf()) return isPattern(owner);
  }
  if (const auto* var = d->as<VarDecl>()) {
    if (var->parent() != nullptr) {
      if (const auto* cls = var->parent()->asDecl()->as<ClassDecl>())
        return isPattern(cls);
    }
  }
  return false;
}

pdb::Pos IlAnalyzer::pos(SourceLocation loc) const {
  if (!loc.valid()) return {};
  const auto it = file_ids_.find(loc.file);
  if (it == file_ids_.end()) return {};
  return {it->second, loc.line, loc.column};
}

pdb::Extent IlAnalyzer::extent(const Decl* d) const {
  pdb::Extent e;
  e.header_begin = pos(d->headerExtent().begin);
  e.header_end = pos(d->headerExtent().end);
  e.body_begin = pos(d->bodyExtent().begin);
  e.body_end = pos(d->bodyExtent().end);
  return e;
}

std::optional<pdb::ItemRef> IlAnalyzer::parentRef(const Decl* d) const {
  const DeclContext* parent = d->parent();
  if (parent == nullptr) return std::nullopt;
  const Decl* pd = parent->asDecl();
  if (const auto it = class_ids_.find(pd); it != class_ids_.end())
    return pdb::ItemRef{pdb::ItemKind::Class, it->second};
  if (const auto it = namespace_ids_.find(pd); it != namespace_ids_.end())
    return pdb::ItemRef{pdb::ItemKind::Namespace, it->second};
  return std::nullopt;
}

std::optional<std::uint32_t> IlAnalyzer::templateOrigin(
    const TemplateDecl* direct, SourceLocation inst_loc) const {
  if (options_.use_direct_template_links) {
    if (direct == nullptr) return std::nullopt;
    const auto it = template_ids_.find(direct);
    if (it == template_ids_.end()) return std::nullopt;
    return it->second;
  }
  // The paper's method: scan the pre-built template list for a template
  // whose source location matches the instantiation's. Instantiations
  // inherit their pattern's location, so this succeeds for them; explicit
  // specializations carry their own location and stay unattributed
  // (the documented limitation of §3.1).
  const auto it = template_locations_.find(inst_loc);
  if (it == template_locations_.end()) return std::nullopt;
  return it->second;
}

pdb::ItemRef IlAnalyzer::typeRef(const Type* type) {
  if (type == nullptr) return {pdb::ItemKind::Type, 0};
  if (const auto* ct = type->as<ClassType>()) {
    // Figure 3 references classes directly: "cmtype cl#63".
    const auto it = class_ids_.find(ct->decl());
    if (it != class_ids_.end()) return {pdb::ItemKind::Class, it->second};
  }
  return {pdb::ItemKind::Type, typeId(type)};
}

std::uint32_t IlAnalyzer::typeId(const Type* type) {
  if (type == nullptr) return 0;
  if (const auto it = type_ids_.find(type); it != type_ids_.end())
    return it->second;

  pdb::TypeItem item;
  item.name = out_.own(type->spelling());
  // Reserve the id before recursing (self-referential types via classes).
  item.id = out_.addType(item);
  type_ids_[type] = item.id;

  switch (type->kind()) {
    case TypeKind::Builtin: {
      const auto* b = type->as<BuiltinType>();
      switch (b->builtin()) {
        case BuiltinKind::Void: item.kind = "void"; break;
        case BuiltinKind::Bool: item.kind = "bool"; break;
        case BuiltinKind::Char:
        case BuiltinKind::SChar:
        case BuiltinKind::UChar: item.kind = "char"; break;
        case BuiltinKind::WChar: item.kind = "wchar"; break;
        case BuiltinKind::Float:
        case BuiltinKind::Double:
        case BuiltinKind::LongDouble: item.kind = "float"; break;
        default: item.kind = "int"; break;
      }
      item.ikind = toString(b->builtin());
      break;
    }
    case TypeKind::Pointer:
      item.kind = "ptr";
      item.ref = typeRef(type->as<PointerType>()->pointee());
      break;
    case TypeKind::Reference:
      item.kind = "ref";
      item.ref = typeRef(type->as<ReferenceType>()->referee());
      break;
    case TypeKind::Qualified: {
      const auto* q = type->as<QualifiedType>();
      item.kind = "tref";
      item.ref = typeRef(q->base());
      if (q->isConst()) item.qualifiers.push_back("const");
      if (q->isVolatile()) item.qualifiers.push_back("volatile");
      break;
    }
    case TypeKind::Array: {
      const auto* a = type->as<ArrayType>();
      item.kind = "array";
      item.ref = typeRef(a->element());
      item.array_size = a->size();
      break;
    }
    case TypeKind::Function: {
      const auto* f = type->as<FunctionType>();
      item.kind = "func";
      item.return_type = typeRef(f->result());
      for (const Type* p : f->params()) item.params.push_back(typeRef(p));
      if (f->isConstMember()) item.qualifiers.push_back("const");
      item.has_ellipsis = f->hasEllipsis();
      item.has_exception_spec = !f->exceptionSpecs().empty();
      for (const Type* e : f->exceptionSpecs())
        item.exception_specs.push_back(typeRef(e));
      break;
    }
    case TypeKind::Class:
      // Reached only for pattern classes without a cl item: opaque.
      item.kind = "class";
      break;
    case TypeKind::Enum: {
      item.kind = "enum";
      const auto* en = type->as<EnumType>()->decl();
      for (const EnumeratorDecl* e : en->enumerators)
        item.enumerators.emplace_back(out_.own(e->name()), e->value);
      break;
    }
    case TypeKind::Typedef: {
      const auto* td = type->as<TypedefType>();
      item.kind = "typedef";
      item.ref = typeRef(td->underlying());
      break;
    }
    case TypeKind::TemplateParam:
      item.kind = "tparam";
      break;
    case TypeKind::TemplateSpecialization:
      item.kind = "dependent";
      break;
  }

  // Update the reserved slot (appended above; recursion may have added
  // more types after it, so search backwards from the end).
  for (auto it = out_.types().rbegin(); it != out_.types().rend(); ++it) {
    if (it->id == item.id) {
      *it = item;
      break;
    }
  }
  return item.id;
}

// ---------------------------------------------------------------------------
// Traversals
// ---------------------------------------------------------------------------

void IlAnalyzer::collectFiles() {
  for (const FileId file : result_.files) {
    pdb::SourceFileItem item;
    item.name = out_.own(sm_.name(file));
    const std::uint32_t id = out_.addSourceFile(std::move(item));
    file_ids_[file] = id;
  }
  for (const lex::IncludeEdge& edge : result_.includes) {
    const auto from = file_ids_.find(edge.includer);
    const auto to = file_ids_.find(edge.includee);
    if (from == file_ids_.end() || to == file_ids_.end()) continue;
    recordAt(out_.sourceFiles(), out_.findSourceFile(from->second))
        .includes.push_back(to->second);
  }
}

void IlAnalyzer::collectNamespaces(const DeclContext* ctx) {
  for (const Decl* child : ctx->children()) {
    if (const auto* ns = child->as<NamespaceDecl>()) {
      if (!namespace_ids_.contains(ns)) {
        pdb::NamespaceItem item;
        item.name = out_.own(ns->name());
        namespace_ids_[ns] = out_.addNamespace(std::move(item));
      }
      collectNamespaces(ns);
    } else if (const auto* alias = child->as<NamespaceAliasDecl>()) {
      pdb::NamespaceItem item;
      item.name = out_.own(alias->name());
      item.alias = alias->target != nullptr ? out_.own(alias->target->name())
                                            : std::string_view("?");
      namespace_ids_[alias] = out_.addNamespace(std::move(item));
    }
  }
}

void IlAnalyzer::collectTemplates(const DeclContext* ctx) {
  for (const Decl* child : ctx->children()) {
    if (const auto* td = child->as<TemplateDecl>()) {
      if (!options_.emit_uninstantiated_templates && td->instantiations.empty())
        continue;
      pdb::TemplateItem item;
      item.name = out_.own(td->name());
      const std::uint32_t id = out_.addTemplate(std::move(item));
      template_ids_[td] = id;
      if (td->location().valid()) template_locations_[td->location()] = id;
      // Member templates live inside the pattern class; the pattern
      // member's (definition) location keys the origin scan.
      if (td->tkind == TemplateKind::Class && td->pattern != nullptr) {
        template_locations_[td->pattern->location()] = id;
        collectTemplates(td->pattern->as<ClassDecl>());
      }
      if ((td->tkind == TemplateKind::MemberFunc ||
           td->tkind == TemplateKind::StaticMem ||
           td->tkind == TemplateKind::Function) &&
          td->pattern != nullptr) {
        template_locations_[td->pattern->location()] = id;
      }
    } else if (const auto* ns = child->as<NamespaceDecl>()) {
      collectTemplates(ns);
    } else if (const auto* cls = child->as<ClassDecl>()) {
      if (!isPattern(cls)) collectTemplates(cls);
    }
  }
}

void IlAnalyzer::collectClasses(const DeclContext* ctx) {
  for (const Decl* child : ctx->children()) {
    if (const auto* cls = child->as<ClassDecl>()) {
      if (isPattern(cls) || class_ids_.contains(cls)) continue;
      pdb::ClassItem item;
      item.name = out_.own(cls->name());
      class_ids_[cls] = out_.addClass(std::move(item));
      collectClasses(cls);  // nested classes
    } else if (const auto* ns = child->as<NamespaceDecl>()) {
      collectClasses(ns);
    }
  }
}

void IlAnalyzer::collectEnums(const DeclContext* ctx) {
  // Enums are TYPES in the PDB (Table 1); intern them even when nothing
  // else references them so their enumerators are recorded.
  for (const Decl* child : ctx->children()) {
    if (const auto* en = child->as<EnumDecl>()) {
      (void)typeId(result_.ast->enumType(en));
    } else if (const auto* ns = child->as<NamespaceDecl>()) {
      collectEnums(ns);
    } else if (const auto* cls = child->as<ClassDecl>()) {
      if (!isPattern(cls)) collectEnums(cls);
    }
  }
}

void IlAnalyzer::collectRoutines(const DeclContext* ctx) {
  for (const Decl* child : ctx->children()) {
    if (const auto* fn = child->as<FunctionDecl>()) {
      if (isPattern(fn) || routine_ids_.contains(fn)) continue;
      pdb::RoutineItem item;
      item.name = out_.own(fn->name());
      routine_ids_[fn] = out_.addRoutine(std::move(item));
    } else if (const auto* ns = child->as<NamespaceDecl>()) {
      collectRoutines(ns);
    } else if (const auto* cls = child->as<ClassDecl>()) {
      if (!isPattern(cls)) collectRoutines(cls);
    }
  }
}

// ---------------------------------------------------------------------------
// Emission
// ---------------------------------------------------------------------------

void IlAnalyzer::emitTemplates() {
  for (const auto& [decl, id] : byId(template_ids_)) {
    const auto* td = decl->as<TemplateDecl>();
    pdb::TemplateItem& item = recordAt(out_.templates(), out_.findTemplate(id));
    item.location = pos(td->location());
    item.kind = toString(td->tkind);
    item.text = out_.own(td->text);
    item.parent = parentRef(td);
    if (td->access() != AccessKind::None)
      item.access = toString(td->access());
    item.extent = extent(td);
  }
}

void IlAnalyzer::emitClasses() {
  for (const auto& [decl, id] : byId(class_ids_)) {
    const auto* cls = decl->as<ClassDecl>();
    pdb::ClassItem& item = recordAt(out_.classes(), out_.findClass(id));
    item.location = pos(cls->location());
    item.kind = toString(cls->tag);
    item.parent = parentRef(cls);
    if (cls->access() != AccessKind::None)
      item.access = toString(cls->access());
    item.is_specialization = cls->is_specialization;
    if (const auto origin =
            templateOrigin(cls->instantiated_from, cls->location())) {
      item.template_id = *origin;
    }
    for (const BaseSpecifier& base : cls->bases) {
      if (base.base == nullptr) continue;
      const auto it = class_ids_.find(base.base);
      if (it == class_ids_.end()) continue;
      pdb::ClassItem::Base b;
      b.cls = it->second;
      b.access = toString(base.access);
      b.is_virtual = base.is_virtual;
      item.bases.push_back(std::move(b));
    }
    for (const FriendEntry& f : cls->friends) {
      pdb::ClassItem::Friend pf;
      pf.is_class = f.is_class;
      pf.name = out_.own(f.name);
      if (f.resolved != nullptr) {
        if (const auto it = class_ids_.find(f.resolved); it != class_ids_.end())
          pf.ref = pdb::ItemRef{pdb::ItemKind::Class, it->second};
        else if (const auto rt = routine_ids_.find(f.resolved);
                 rt != routine_ids_.end())
          pf.ref = pdb::ItemRef{pdb::ItemKind::Routine, rt->second};
      }
      item.friends.push_back(std::move(pf));
    }
    for (const Decl* member : cls->children()) {
      if (const auto* fn = member->as<FunctionDecl>()) {
        const auto it = routine_ids_.find(fn);
        if (it == routine_ids_.end()) continue;
        item.funcs.push_back({it->second, pos(fn->location())});
      } else if (const auto* var = member->as<VarDecl>()) {
        pdb::ClassItem::Member m;
        m.name = out_.own(var->name());
        m.location = pos(var->location());
        m.access = toString(var->access());
        m.kind = "var";
        m.type = typeRef(var->type);
        item.members.push_back(std::move(m));
      } else if (const auto* tdf = member->as<TypedefDecl>()) {
        pdb::ClassItem::Member m;
        m.name = out_.own(tdf->name());
        m.location = pos(tdf->location());
        m.access = toString(tdf->access());
        m.kind = "type";
        m.type = typeRef(tdf->underlying);
        item.members.push_back(std::move(m));
      }
    }
    item.extent = extent(cls);
  }
}

void IlAnalyzer::emitRoutines() {
  for (const auto& [decl, id] : byId(routine_ids_)) {
    const auto* fn = decl->as<FunctionDecl>();
    pdb::RoutineItem& item = recordAt(out_.routines(), out_.findRoutine(id));
    item.location = pos(fn->location());
    item.parent = parentRef(fn);
    if (fn->access() != AccessKind::None)
      item.access = toString(fn->access());
    item.signature = typeId(fn->signature);
    item.linkage = fn->linkage == Linkage::C ? "C" : "C++";
    item.storage = fn->storage == StorageClass::Static
                       ? "static"
                       : (fn->storage == StorageClass::Extern ? "extern" : "NA");
    item.virtuality =
        fn->is_pure_virtual ? "pure" : (fn->is_virtual ? "virt" : "no");
    switch (fn->fkind) {
      case FunctionKind::Constructor: item.kind = "ctor"; break;
      case FunctionKind::Destructor: item.kind = "dtor"; break;
      case FunctionKind::Conversion: item.kind = "conv"; break;
      case FunctionKind::Operator: item.kind = "op"; break;
      case FunctionKind::Normal: item.kind = "routine"; break;
    }
    item.is_static = fn->is_static;
    item.is_inline = fn->is_inline;
    item.is_explicit = fn->is_explicit;
    item.is_specialization = fn->is_specialization;
    item.defined = fn->is_defined;
    if (const auto origin =
            templateOrigin(fn->instantiated_from, fn->location())) {
      item.template_id = *origin;
    }
    collectCalls(fn, item);
    item.extent = extent(fn);
  }
}

void IlAnalyzer::collectCalls(const FunctionDecl* fn, pdb::RoutineItem& item) {
  const auto addCall = [&](const FunctionDecl* target, bool is_virtual,
                           SourceLocation loc) {
    if (target == nullptr) return;
    const auto it = routine_ids_.find(target);
    if (it == routine_ids_.end()) return;
    item.calls.push_back({it->second, is_virtual, pos(loc)});
  };

  // Constructor initializers are constructor calls (paper §3.1).
  for (const auto& init : fn->ctor_inits) {
    addCall(init.resolved_ctor, false, init.location);
  }
  if (fn->body == nullptr) return;

  // Recursive walk carrying the enclosing scope's end location so that
  // destructor calls implied by lifetimes get a calling location.
  std::function<void(const Stmt*, SourceLocation)> visit =
      [&](const Stmt* s, SourceLocation scope_end) {
        if (s == nullptr) return;
        switch (s->kind()) {
          case StmtKind::Compound: {
            const SourceLocation end = s->extent().end;
            for (const Stmt* c : s->as<CompoundStmt>()->body) visit(c, end);
            return;
          }
          case StmtKind::DeclStatement: {
            for (const VarDecl* var : s->as<DeclStmt>()->vars) {
              addCall(var->resolved_ctor, false, var->location());
              // The destructor runs where the lifetime ends.
              addCall(var->resolved_dtor, false, scope_end);
              if (var->init != nullptr) visit(var->init, scope_end);
              for (const Expr* a : var->ctor_args) visit(a, scope_end);
            }
            return;
          }
          case StmtKind::Call: {
            const auto* call = s->as<CallExpr>();
            addCall(call->resolved, call->is_virtual_call, call->call_location);
            break;
          }
          case StmtKind::Binary: {
            const auto* bin = s->as<BinaryExpr>();
            addCall(bin->resolved_operator, false, s->extent().begin);
            break;
          }
          case StmtKind::Index: {
            const auto* idx = s->as<IndexExpr>();
            addCall(idx->resolved_operator, false, s->extent().begin);
            break;
          }
          case StmtKind::Construct: {
            const auto* c = s->as<ConstructExpr>();
            addCall(c->ctor, false, s->extent().begin);
            break;
          }
          case StmtKind::New: {
            const auto* n = s->as<NewExpr>();
            addCall(n->ctor, false, s->extent().begin);
            break;
          }
          case StmtKind::Delete: {
            const auto* d = s->as<DeleteExpr>();
            addCall(d->dtor, false, s->extent().begin);
            break;
          }
          default:
            break;
        }
        forEachChild(s, [&](const Stmt* child) { visit(child, scope_end); });
      };
  visit(fn->body, fn->bodyExtent().end);
}

void IlAnalyzer::emitDefUse() {
  for (const auto& [decl, id] : byId(routine_ids_)) {
    const auto* fn = decl->as<FunctionDecl>();
    if (fn == nullptr || fn->body == nullptr) continue;
    pdb::DefUseItem item;
    item.routine = id;
    collectDefUse(fn, item);
    if (!item.events.empty()) out_.addDefUse(std::move(item));
  }
}

// Statement-level def-use extraction (docs/PDB_FORMAT.md §du). One
// deterministic source-order walk per routine body emits three event
// kinds: Def (storage written), Use (storage read), and structural
// markers from a closed vocabulary that let consumers rebuild a CFG-lite
// without reparsing sources. Only storage the routine owns is tracked —
// parameters, body locals, and member paths rooted at `this` or a local —
// because the dataflow rules built on the stream are intra-procedural.
void IlAnalyzer::collectDefUse(const FunctionDecl* fn, pdb::DefUseItem& item) {
  namespace du = pdb::du;
  // Locals the stream tracks: parameters plus every VarDecl declared in
  // the body (DeclStmts and catch-handler variables).
  std::unordered_map<const Decl*, std::uint8_t> tracked;
  const auto typeFlags = [](const ast::Type* t) -> std::uint8_t {
    t = canonical(t);
    if (t == nullptr) return 0;
    if (t->kind() == TypeKind::Pointer) return du::kPointer;
    if (t->kind() == TypeKind::Reference) return du::kReference;
    return 0;
  };
  for (const ParamDecl* p : fn->params)
    if (!p->name().empty()) tracked.emplace(p, typeFlags(p->type));
  walk(fn->body, [&](const Stmt* s) {
    if (const auto* ds = s->as<DeclStmt>()) {
      for (const VarDecl* var : ds->vars)
        if (!var->name().empty()) tracked.emplace(var, typeFlags(var->type));
    } else if (const auto* ts = s->as<TryStmt>()) {
      for (const TryStmt::Handler& h : ts->handlers)
        if (h.var != nullptr && !h.var->name().empty())
          tracked.emplace(h.var, typeFlags(h.var->type));
    }
  });

  // Depth of conditionally-evaluated expression context (short-circuit
  // rhs, conditional-operator arms). Defs emitted there may not execute,
  // so they are weakened to kUnknown: they gen but never kill, and the
  // dataflow rules treat the variable as escaped.
  std::uint32_t cond_depth = 0;
  const auto event = [&](pdb::DuOp op, std::uint8_t flags,
                         std::string_view name, SourceLocation loc) {
    if (op == pdb::DuOp::Def && cond_depth > 0) flags |= pdb::du::kUnknown;
    item.events.push_back({op, flags, pdb::PdbFile::intern(name), pos(loc)});
  };
  const auto marker = [&](std::string_view kind, SourceLocation loc) {
    event(pdb::DuOp::Marker, 0, kind, loc);
  };

  /// Variable path of an lvalue expression: "x", "this.top", "s.rep.len";
  /// empty when the expression does not name tracked storage.
  std::function<std::string(const Expr*)> pathOf = [&](const Expr* e)
      -> std::string {
    if (e == nullptr) return {};
    switch (e->kind()) {
      case StmtKind::This: return "this";
      case StmtKind::DeclRef: {
        const auto* ref = e->as<DeclRefExpr>();
        if (ref->decl != nullptr && tracked.contains(ref->decl))
          return ref->name;
        return {};
      }
      case StmtKind::Member: {
        const auto* mem = e->as<MemberExpr>();
        const std::string base = pathOf(mem->base);
        if (base.empty()) return {};
        return base + "." + mem->member;
      }
      case StmtKind::Cast:
        return pathOf(e->as<CastExpr>()->operand);
      default: return {};
    }
  };
  const auto flagsOfPath = [&](const Expr* e) -> std::uint8_t {
    // Member paths carry kMember plus the member's own type flags; plain
    // DeclRefs carry the tracked variable's type flags.
    if (e->kind() == StmtKind::Member)
      return static_cast<std::uint8_t>(du::kMember | typeFlags(e->type));
    if (const auto* ref = e->as<DeclRefExpr>()) {
      if (const auto it = tracked.find(ref->decl); it != tracked.end())
        return it->second;
    }
    return 0;
  };
  /// True for an rhs that is a null pointer constant (possibly cast).
  std::function<bool(const Expr*)> isNullConstant = [&](const Expr* e) -> bool {
    if (e == nullptr) return false;
    if (const auto* lit = e->as<IntLitExpr>()) return lit->value == 0;
    if (const auto* cast = e->as<CastExpr>())
      return isNullConstant(cast->operand);
    return false;
  };

  enum class Mode { Read, Write, ReadWrite };
  // Expression walk. `extra` adds flags to the event the expression
  // itself produces (e.g. kDeref on the operand of unary '*').
  std::function<void(const Expr*, Mode, std::uint8_t)> visitExpr;
  /// Emit use/def events for an lvalue path, or fall back to visiting
  /// children as reads when the expression names no tracked storage.
  const auto lvalue = [&](const Expr* e, Mode mode, std::uint8_t extra) {
    const std::string path = pathOf(e);
    if (path.empty() || path == "this") {
      // Not tracked storage: its subexpressions are still reads.
      if (const auto* mem = e->as<MemberExpr>()) {
        visitExpr(mem->base, Mode::Read,
                  mem->is_arrow ? du::kDeref : std::uint8_t{0});
      } else {
        forEachChild(e, [&](const Stmt* c) {
          if (const auto* ce = dynamic_cast<const Expr*>(c))
            visitExpr(ce, Mode::Read, 0);
        });
      }
      return;
    }
    // An arrow access reads (and dereferences) the base pointer.
    if (const auto* mem = e->as<MemberExpr>(); mem != nullptr && mem->is_arrow)
      visitExpr(mem->base, Mode::Read, du::kDeref);
    const auto flags = static_cast<std::uint8_t>(flagsOfPath(e) | extra);
    const SourceLocation loc = e->extent().begin;
    if (mode != Mode::Write) event(pdb::DuOp::Use, flags, path, loc);
    if (mode != Mode::Read) event(pdb::DuOp::Def, flags, path, loc);
  };
  /// Conservative argument handling: an argument passed by non-const
  /// reference or pointer — or to an unresolved callee — may be written.
  const auto visitArg = [&](const Expr* arg, const ast::Type* param_type,
                            bool callee_known) {
    const std::string path = pathOf(arg);
    bool may_write = !callee_known;
    if (param_type != nullptr) {
      if (const auto* ref = canonical(param_type)->as<ReferenceType>())
        may_write = ref->referee() == nullptr ||
                    ref->referee()->kind() != TypeKind::Qualified ||
                    !ref->referee()->as<QualifiedType>()->isConst();
      // By-value and const-ref parameters cannot write the argument.
    }
    if (!path.empty() && path != "this" && may_write) {
      lvalue(arg, Mode::Read, 0);
      event(pdb::DuOp::Def,
            static_cast<std::uint8_t>(flagsOfPath(arg) | du::kUnknown), path,
            arg->extent().begin);
    } else {
      visitExpr(arg, Mode::Read, 0);
    }
  };
  const auto visitCallArgs = [&](const std::vector<Expr*>& args,
                                 const FunctionDecl* callee) {
    for (std::size_t i = 0; i < args.size(); ++i) {
      const ast::Type* param_type =
          callee != nullptr && i < callee->params.size()
              ? callee->params[i]->type
              : nullptr;
      visitArg(args[i], param_type, callee != nullptr);
    }
  };

  const auto isAssignOp = [](std::string_view op) {
    if (op == "=") return true;
    return op.size() >= 2 && op.back() == '=' && op != "==" && op != "!=" &&
           op != "<=" && op != ">=";
  };
  /// Trailing read of an lvalue whose new value is consumed by the
  /// enclosing expression (`y = (x = 5)` reads x after defining it).
  const auto useOf = [&](const Expr* e) {
    const std::string path = pathOf(e);
    if (!path.empty() && path != "this")
      event(pdb::DuOp::Use, flagsOfPath(e), path, e->extent().begin);
  };
  /// Assignment or compound assignment; `value_used` is false only in
  /// value-discarding positions (expression statements, for-increments).
  const auto assign = [&](const BinaryExpr* bin, bool value_used) {
    // Evaluation order for the stream: the rhs read precedes the lhs
    // def so `x = x + 1` chains correctly.
    visitExpr(bin->rhs, Mode::Read, 0);
    std::uint8_t def_flags = 0;
    if (bin->op == "=" && isNullConstant(bin->rhs))
      def_flags |= du::kNullValue;
    if (bin->resolved_operator != nullptr) {
      // Overloaded assignment is a member call on the lhs.
      visitArg(bin->lhs, nullptr, false);
      return;
    }
    lvalue(bin->lhs, bin->op == "=" ? Mode::Write : Mode::ReadWrite,
           def_flags);
    if (value_used) useOf(bin->lhs);
  };
  const auto incdec = [&](const UnaryExpr* un, bool value_used) {
    visitExpr(un->operand, Mode::ReadWrite, 0);
    if (value_used) useOf(un->operand);
  };

  visitExpr = [&](const Expr* e, Mode mode, std::uint8_t extra) {
    if (e == nullptr) return;
    switch (e->kind()) {
      case StmtKind::DeclRef:
      case StmtKind::Member:
        lvalue(e, mode, extra);
        return;
      case StmtKind::Unary: {
        const auto* un = e->as<UnaryExpr>();
        if (un->op == "&") {
          // Address taken: the storage escapes, so its value is unknown
          // from here on (and aliased writes are possible).
          const std::string path = pathOf(un->operand);
          if (!path.empty() && path != "this") {
            lvalue(un->operand, Mode::Read, 0);
            event(pdb::DuOp::Def,
                  static_cast<std::uint8_t>(flagsOfPath(un->operand) |
                                            du::kUnknown),
                  path, e->extent().begin);
          } else {
            visitExpr(un->operand, Mode::Read, 0);
          }
          return;
        }
        if (un->op == "*") {
          visitExpr(un->operand, Mode::Read, du::kDeref);
          return;
        }
        if (un->op == "++" || un->op == "--") {
          incdec(un, /*value_used=*/true);
          return;
        }
        visitExpr(un->operand, Mode::Read, 0);
        return;
      }
      case StmtKind::Binary: {
        const auto* bin = e->as<BinaryExpr>();
        if (isAssignOp(bin->op)) {
          assign(bin, /*value_used=*/true);
          return;
        }
        if (bin->op == "&&" || bin->op == "||") {
          // The rhs may never execute; defs inside it become weak.
          visitExpr(bin->lhs, Mode::Read, 0);
          ++cond_depth;
          visitExpr(bin->rhs, Mode::Read, 0);
          --cond_depth;
          return;
        }
        visitExpr(bin->lhs, Mode::Read, 0);
        visitExpr(bin->rhs, Mode::Read, 0);
        return;
      }
      case StmtKind::Conditional: {
        const auto* c = e->as<ConditionalExpr>();
        visitExpr(c->condition, Mode::Read, 0);
        // Either arm may be skipped; defs inside them become weak.
        ++cond_depth;
        visitExpr(c->true_value, Mode::Read, 0);
        visitExpr(c->false_value, Mode::Read, 0);
        --cond_depth;
        return;
      }
      case StmtKind::Call: {
        const auto* call = e->as<CallExpr>();
        // A method call reads its receiver; a non-const (or unresolved)
        // method may also write it.
        if (const auto* mem = call->callee->as<MemberExpr>()) {
          const bool is_const_call =
              call->resolved != nullptr && call->resolved->is_const;
          if (mem->is_arrow) visitExpr(mem->base, Mode::Read, du::kDeref);
          else if (is_const_call) visitExpr(mem->base, Mode::Read, 0);
          else visitArg(mem->base, nullptr, false);
        } else if (call->callee->kind() != StmtKind::DeclRef) {
          visitExpr(call->callee, Mode::Read, 0);
        } else if (const auto* ref = call->callee->as<DeclRefExpr>();
                   ref->decl != nullptr && tracked.contains(ref->decl)) {
          // Calling through a local function pointer reads (and derefs) it.
          visitExpr(call->callee, Mode::Read, du::kDeref);
        }
        visitCallArgs(call->args, call->resolved);
        return;
      }
      case StmtKind::Index: {
        const auto* idx = e->as<IndexExpr>();
        // Writing an element writes through the base, not the base
        // variable itself — a deref read of the base either way.
        const std::uint8_t base_deref =
            idx->resolved_operator == nullptr ? du::kDeref : std::uint8_t{0};
        visitExpr(idx->base, Mode::Read, base_deref);
        visitExpr(idx->index, Mode::Read, 0);
        return;
      }
      case StmtKind::Construct: {
        const auto* c = e->as<ConstructExpr>();
        visitCallArgs(c->args, c->ctor);
        return;
      }
      case StmtKind::New: {
        const auto* n = e->as<NewExpr>();
        visitCallArgs(n->args, n->ctor);
        return;
      }
      case StmtKind::Delete:
        visitExpr(e->as<DeleteExpr>()->operand, Mode::Read, 0);
        return;
      case StmtKind::Cast:
        visitExpr(e->as<CastExpr>()->operand, mode, extra);
        return;
      case StmtKind::Comma: {
        const auto* comma = e->as<CommaExpr>();
        visitExpr(comma->lhs, Mode::Read, 0);
        visitExpr(comma->rhs, mode, extra);
        return;
      }
      case StmtKind::SizeOf:
        return;  // unevaluated operand: no reads happen
      default:
        forEachChild(e, [&](const Stmt* c) {
          if (const auto* ce = dynamic_cast<const Expr*>(c))
            visitExpr(ce, Mode::Read, 0);
        });
        return;
    }
  };

  /// Expression in a value-discarding position: top-level assignments and
  /// increments skip the trailing lvalue read `assign`/`incdec` would
  /// otherwise emit for a consumed value.
  std::function<void(const Expr*)> discardValue = [&](const Expr* e) {
    if (e == nullptr) return;
    if (const auto* cast = e->as<CastExpr>()) {
      discardValue(cast->operand);
      return;
    }
    if (const auto* comma = e->as<CommaExpr>()) {
      discardValue(comma->lhs);
      discardValue(comma->rhs);
      return;
    }
    if (const auto* bin = e->as<BinaryExpr>(); bin != nullptr &&
                                               isAssignOp(bin->op)) {
      assign(bin, /*value_used=*/false);
      return;
    }
    if (const auto* un = e->as<UnaryExpr>();
        un != nullptr && (un->op == "++" || un->op == "--")) {
      incdec(un, /*value_used=*/false);
      return;
    }
    visitExpr(e, Mode::Read, 0);
  };

  std::function<void(const Stmt*)> visitStmt = [&](const Stmt* s) {
    if (s == nullptr) return;
    switch (s->kind()) {
      case StmtKind::Compound:
        for (const Stmt* c : s->as<CompoundStmt>()->body) visitStmt(c);
        return;
      case StmtKind::DeclStatement:
        for (const VarDecl* var : s->as<DeclStmt>()->vars) {
          for (const Expr* a : var->ctor_args) visitArg(a, nullptr, false);
          if (var->init != nullptr) visitExpr(var->init, Mode::Read, 0);
          if (var->name().empty()) continue;
          std::uint8_t flags = 0;
          if (const auto it = tracked.find(var); it != tracked.end())
            flags = it->second;
          const bool constructed = var->resolved_ctor != nullptr ||
                                   (canonical(var->type) != nullptr &&
                                    canonical(var->type)->kind() ==
                                        TypeKind::Class);
          if (var->init == nullptr && var->ctor_args.empty() && !constructed)
            flags |= du::kUninit;
          if (var->init != nullptr && isNullConstant(var->init))
            flags |= du::kNullValue;
          event(pdb::DuOp::Def, flags, var->name(), var->location());
        }
        return;
      case StmtKind::ExprStatement:
        discardValue(s->as<ExprStmt>()->expr);
        return;
      case StmtKind::If: {
        const auto* iff = s->as<IfStmt>();
        visitExpr(iff->condition, Mode::Read, 0);
        marker("then", s->extent().begin);
        visitStmt(iff->then_branch);
        if (iff->else_branch != nullptr) {
          marker("else", iff->else_branch->extent().begin);
          visitStmt(iff->else_branch);
        }
        marker("endif", s->extent().end);
        return;
      }
      case StmtKind::While: {
        const auto* loop = s->as<WhileStmt>();
        marker("loop", s->extent().begin);
        visitExpr(loop->condition, Mode::Read, 0);
        marker("body", s->extent().begin);
        visitStmt(loop->body);
        marker("endloop", s->extent().end);
        return;
      }
      case StmtKind::DoWhile: {
        const auto* loop = s->as<DoWhileStmt>();
        marker("doloop", s->extent().begin);
        marker("body", s->extent().begin);
        visitStmt(loop->body);
        visitExpr(loop->condition, Mode::Read, 0);
        marker("endloop", s->extent().end);
        return;
      }
      case StmtKind::For: {
        const auto* loop = s->as<ForStmt>();
        visitStmt(loop->init);
        marker("loop", s->extent().begin);
        if (loop->condition != nullptr)
          visitExpr(loop->condition, Mode::Read, 0);
        marker("body", s->extent().begin);
        visitStmt(loop->body);
        if (loop->increment != nullptr) discardValue(loop->increment);
        marker("endloop", s->extent().end);
        return;
      }
      case StmtKind::Switch: {
        const auto* sw = s->as<SwitchStmt>();
        visitExpr(sw->condition, Mode::Read, 0);
        marker("switch", s->extent().begin);
        visitStmt(sw->body);
        marker("endswitch", s->extent().end);
        return;
      }
      case StmtKind::Case: {
        const auto* cs = s->as<CaseStmt>();
        marker("case", s->extent().begin);
        // Case values are constant expressions; no storage is read.
        visitStmt(cs->body);
        return;
      }
      case StmtKind::Default:
        marker("default", s->extent().begin);
        visitStmt(s->as<DefaultStmt>()->body);
        return;
      case StmtKind::Return: {
        const auto* ret = s->as<ReturnStmt>();
        if (ret->value != nullptr) visitExpr(ret->value, Mode::Read, 0);
        marker("ret", s->extent().begin);
        return;
      }
      case StmtKind::Break:
        marker("break", s->extent().begin);
        return;
      case StmtKind::Continue:
        marker("continue", s->extent().begin);
        return;
      case StmtKind::Goto:
      case StmtKind::Label:
        // Irregular control flow the CFG-lite does not model; analyses
        // see the marker and skip the routine.
        marker("irregular", s->extent().begin);
        if (const auto* label = s->as<LabelStmt>()) visitStmt(label->body);
        return;
      case StmtKind::Try: {
        const auto* tr = s->as<TryStmt>();
        marker("irregular", s->extent().begin);
        visitStmt(tr->body);
        for (const TryStmt::Handler& h : tr->handlers) {
          if (h.var != nullptr && !h.var->name().empty()) {
            std::uint8_t flags = 0;
            if (const auto it = tracked.find(h.var); it != tracked.end())
              flags = it->second;
            event(pdb::DuOp::Def, flags, h.var->name(), h.var->location());
          }
          visitStmt(h.body);
        }
        return;
      }
      case StmtKind::Null:
        return;
      default:
        // An expression in statement position.
        if (const auto* e = dynamic_cast<const Expr*>(s))
          visitExpr(e, Mode::Read, 0);
        return;
    }
  };

  // Parameters are defined on entry.
  for (const ParamDecl* p : fn->params) {
    if (p->name().empty()) continue;
    std::uint8_t flags = du::kParam;
    if (const auto it = tracked.find(p); it != tracked.end())
      flags |= it->second;
    event(pdb::DuOp::Def, flags, p->name(), p->location());
  }
  // Constructor initializers define members (and read their arguments).
  for (const auto& init : fn->ctor_inits) {
    for (const Expr* a : init.args) visitExpr(a, Mode::Read, 0);
    event(pdb::DuOp::Def, du::kMember, "this." + init.name, init.location);
  }
  visitStmt(fn->body);
}

void IlAnalyzer::emitNamespaces() {
  for (const auto& [decl, id] : byId(namespace_ids_)) {
    pdb::NamespaceItem& item = recordAt(out_.namespaces(), out_.findNamespace(id));
    item.location = pos(decl->location());
    if (const auto* ns = decl->as<NamespaceDecl>()) {
      for (const Decl* member : ns->children()) {
        if (const auto it = routine_ids_.find(member); it != routine_ids_.end())
          item.members.push_back({pdb::ItemKind::Routine, it->second});
        else if (const auto ct = class_ids_.find(member); ct != class_ids_.end())
          item.members.push_back({pdb::ItemKind::Class, ct->second});
        else if (const auto nt = namespace_ids_.find(member);
                 nt != namespace_ids_.end())
          item.members.push_back({pdb::ItemKind::Namespace, nt->second});
        else if (const auto tt = template_ids_.find(member);
                 tt != template_ids_.end())
          item.members.push_back({pdb::ItemKind::Template, tt->second});
      }
    }
  }
}

void IlAnalyzer::emitMacros() {
  for (const lex::MacroRecord& record : result_.macros) {
    pdb::MacroItem item;
    item.name = out_.own(record.name);
    item.location = pos(record.location);
    item.kind = record.kind == lex::MacroRecord::Kind::Define ? "def" : "undef";
    item.text = out_.own(record.text);
    out_.addMacro(std::move(item));
  }
}

}  // namespace pdt::ilanalyzer
