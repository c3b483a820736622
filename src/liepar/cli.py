"""Command-line front end: an interactive REPL / batch interpreter for
root data, strong real forms, the one-sided space X and the two-sided
pair space.

Commands:
  type <Xn[.Xn...][.Tk]> <sc|ad|matrix>   choose a root datum
  inner <c|u|perm>                        choose the inner class twist
  strongreal                              list strong real forms
  cartan                                  list Cartan classes
  kgb <form#>                             table of one strong real form
  X                                       table of the full space
  block <form#> [y2-class]                pair table for one form
  count-z [x2 y2]                         block sizes and total pairs
  realweyl <kgb-id>                       real Weyl group of an element
  dual                                    switch to the dual inner class
  dot <X|form#> <path>                    export the move graph
  quit
Central elements are written `1` (identity), `-1` (the order-2 central
element, when unique) or explicit coordinates `a/b,c/d`.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from fractions import Fraction

from .fiber import central_fixed_points
from .intlinalg import RatVecModZ, mat_mul, scaled_inverse
from .kgb import (enumerate_X, real_weyl, strong_real_forms,
                  _validate_square)
from .rootdatum import _block_diagonal, from_type, new_root_datum, parse_type
from .weyl import (InnerClass, InvalidInvolution, cartan_classes,
                   inner_class_from_perm, trivial_inner_class,
                   twisted_involutions)
from .zspace import count_z_blocks, langlands_count, match_pairs


class CommandError(Exception):
    def __init__(self, message, column=None):
        super().__init__(message)
        self.column = column


def parse_central(ic: InnerClass, text: str) -> RatVecModZ:
    if text == "1":
        return _validate_square(
            ic, RatVecModZ.reduce([0] * ic.rank))
    if text == "-1":
        cands = [z for z in central_fixed_points(ic) if z.order == 2]
        if not cands:
            raise CommandError("'-1': no central element has order 2")
        if len(cands) > 1:
            raise CommandError(
                f"'-1' is ambiguous: {len(cands)} central elements of "
                "order 2; give explicit coordinates")
        return cands[0]
    try:
        coords = [Fraction(p) for p in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise CommandError(f"cannot parse central element '{text}'")
    if len(coords) != ic.rank:
        raise CommandError(
            f"central element needs {ic.rank} coordinates, got {len(coords)}")
    try:
        return _validate_square(ic, RatVecModZ.reduce(coords))
    except ValueError as exc:
        raise CommandError(str(exc))


def _index(text, n, what) -> int:
    """text read as an index below n."""
    try:
        k = int(text)
    except ValueError:
        raise CommandError(f"{what} expected, got '{text}'")
    if not 0 <= k < n:
        raise CommandError(f"{what} out of range 0..{n - 1}")
    return k


def _diagram_involutions(cartan):
    n = len(cartan)
    perms = []

    def backtrack(partial):
        i = len(partial)
        if i == n:
            if all(partial[partial[a]] == a for a in range(n)) and \
                    any(partial[a] != a for a in range(n)):
                perms.append(tuple(partial))
            return
        for j in range(n):
            if j in partial:
                continue
            if any(cartan[a][i] != cartan[partial[a]][j] or
                   cartan[i][a] != cartan[j][partial[a]]
                   for a in range(i)):
                continue
            backtrack(partial + [j])

    backtrack([])
    return perms


class Session:
    def __init__(self, out=None, verbose=False):
        self.out = out if out is not None else sys.stdout
        self.verbose = verbose
        self.rd = None
        self.ic = None
        self._pending_matrix = None  # (type string, cartan, torus rank)
        self.done = False
        self.lineno = 0

    def emit(self, text=""):
        self.out.write(text + "\n")

    # -- command loop ----------------------------------------------------

    def run(self, lines):
        """Run commands: an iterable of lines, or one str of them."""
        if isinstance(lines, str):
            lines = lines.splitlines()
        for raw in lines:
            if self.done:
                break
            self.lineno += 1
            line = raw.rstrip("\n")
            started = time.monotonic()
            try:
                self.handle(line)
            except CommandError as exc:
                col = f", column {exc.column}" if exc.column else ""
                self.emit(f"error (line {self.lineno}{col}): {exc}")
            except ValueError as exc:
                self.emit(f"error (line {self.lineno}): {exc}")
            if self.verbose and line.strip():
                self.emit(f"# {time.monotonic() - started:.3f}s")

    def handle(self, line):
        if self._pending_matrix is not None:
            self._finish_matrix(line)
            return
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            return
        tokens = stripped.split()
        cmd, args = tokens[0], tokens[1:]
        handler = getattr(self, "cmd_" + cmd.replace("-", "_"), None)
        if handler is None:
            raise CommandError(f"unknown command '{cmd}'",
                               column=line.index(cmd) + 1)
        handler(args)

    # -- state helpers ---------------------------------------------------

    def need_rd(self):
        if self.rd is None:
            raise CommandError("no root datum; run 'type' first")
        return self.rd

    def need_ic(self):
        self.need_rd()
        if self.ic is None:
            raise CommandError("no inner class; run 'inner' first")
        return self.ic

    def _switch(self, rd, ic, head):
        self.rd, self.ic = rd, ic
        self.emit(f"{head} (rank {rd.rank}, {rd.n_pos} positive roots)")

    def _x_table(self):
        return enumerate_X(self.need_ic())

    def _form(self, text):
        forms = strong_real_forms(self.need_ic())
        return forms[_index(text, len(forms), "form number")]

    # -- commands --------------------------------------------------------

    def cmd_type(self, args):
        if len(args) != 2:
            raise CommandError("usage: type <Xn[.Xn...][.Tk]> <sc|ad|matrix>")
        type_string, isogeny = args
        if isogeny in ("sc", "ad"):
            self._switch(from_type(type_string, isogeny), None,
                         f"root datum: {type_string} {isogeny}")
        elif isogeny == "matrix":
            blocks, torus = parse_type(type_string)
            cartan = _block_diagonal(blocks)
            self._pending_matrix = (type_string, cartan, torus)
            self.emit(f"enter the lattice basis for {type_string} as rows "
                      "in fundamental-weight/torus coordinates "
                      "(rows ';'-separated, entries ','-separated):")
        else:
            raise CommandError(f"isogeny must be sc, ad or matrix, "
                               f"got '{isogeny}'")

    def _finish_matrix(self, line):
        type_string, cartan, torus = self._pending_matrix
        self._pending_matrix = None
        k = len(cartan)
        n = k + torus
        try:
            rows = [[int(e) for e in row.split(",")]
                    for row in line.strip().split(";")]
        except ValueError:
            raise CommandError("lattice basis rows must be integers")
        if len(rows) != n or any(len(r) != n for r in rows):
            raise CommandError(f"lattice basis must be {n}x{n}")
        inv = scaled_inverse(rows)
        if inv is None:
            raise CommandError("lattice basis is singular")
        den, binv = inv
        # simple root j in fundamental-weight coordinates is row j of the
        # Cartan matrix (zero on torus coordinates); rewrite the roots in
        # the chosen basis and read the coroots off the basis columns
        coords = mat_mul([list(row) + [0] * torus for row in cartan], binv)
        if any(x % den for row in coords for x in row):
            raise CommandError(
                "the root lattice is not contained in this lattice")
        simple_roots = [[x // den for x in row] for row in coords]
        simple_coroots = [[rows[i][j] for i in range(n)] for j in range(k)]
        self._switch(new_root_datum(simple_roots, simple_coroots, n), None,
                     f"root datum: {type_string} matrix")

    def cmd_inner(self, args):
        rd = self.need_rd()
        if len(args) != 1:
            raise CommandError("usage: inner <c|u|perm>")
        spec = args[0]
        if spec == "c":
            self.ic = trivial_inner_class(rd)
        elif spec == "u":
            invs = _diagram_involutions(rd.cartan_matrix)
            if len(invs) != 1:
                raise CommandError(
                    f"'u' needs a unique nontrivial diagram involution; "
                    f"found {len(invs)}")
            self.ic = self._class_from_perm(invs[0])
        else:
            try:
                perm = tuple(int(p) - 1 for p in spec.split(","))
            except ValueError:
                raise CommandError(f"cannot parse permutation '{spec}'")
            if sorted(perm) != list(range(rd.n_simple)):
                raise CommandError(
                    "permutation must list each simple root 1..k once")
            self.ic = self._class_from_perm(perm)
        perm1 = ",".join(str(p + 1) for p in self.ic.diagram_perm)
        self.emit(f"inner class: diagram permutation {perm1}")

    def _class_from_perm(self, perm):
        rd = self.rd
        n = rd.rank
        error = ""
        try:
            if rd.n_simple == n:
                # the simple roots span: the one candidate is solved for
                return inner_class_from_perm(rd, perm)
            # a coordinate permutation (sc/ad-style data)
            g = [[0] * n for _ in range(n)]
            for i in range(n):
                g[i][perm[i] if i < len(perm) else i] = 1
            ic = InnerClass(rd, g)
            if ic.diagram_perm[:len(perm)] == tuple(perm):
                return ic
        except InvalidInvolution as exc:
            error = str(exc)
        raise CommandError(
            f"no lattice involution realizes this permutation ({error})")

    def cmd_strongreal(self, args):
        ic = self.need_ic()
        forms = strong_real_forms(ic)
        self.emit(f"{len(forms)} strong real forms (quasisplit last):")
        for f in forms:
            tag = " quasisplit" if f.quasisplit else ""
            self.emit(f"form {f.index}: size {len(f.element_ids)}, "
                      f"square {f.square}, "
                      f"base fiber {list(f.base_ids)}{tag}")

    def cmd_cartan(self, args):
        ic = self.need_ic()
        tbl = twisted_involutions(ic)
        from .fiber import fiber_space
        self.emit(f"{len(cartan_classes(ic))} Cartan classes:")
        for c in cartan_classes(ic):
            rep = tbl.elements[c.rep]
            sig = fiber_space(rep, ic).signature
            word = rep.tau_word_str() or "e"
            self.emit(f"cartan {c.index}: tau {word}, "
                      f"size {len(c.members)}, "
                      f"signature split={sig.a} compact={sig.b} "
                      f"complex={sig.c}")

    def cmd_kgb(self, args):
        if len(args) != 1:
            raise CommandError("usage: kgb <form#>")
        self._emit_table("kgb", self._x_table().form_table(
            self._form(args[0]).index))

    def cmd_X(self, args):
        self._emit_table("X", self._x_table())

    def _emit_table(self, name, table):
        self.emit(f"{name} size: {len(table)}")
        for line in table.lines():
            self.emit(line)

    def cmd_block(self, args):
        if len(args) not in (1, 2):
            raise CommandError("usage: block <form#> [y2-class]")
        ic = self.need_ic()
        form = self._form(args[0])
        y2 = parse_central(ic.dual, args[1]) if len(args) == 2 else None
        xt = self._x_table()
        lc = langlands_count(ic, xt[form.element_ids[0]])
        if lc.note:
            self.emit(f"note: {lc.note}")
        yt = enumerate_X(ic.dual)
        rows = match_pairs(ic, xt, form.element_ids, yt,
                           range(len(yt)) if y2 is None else yt.ids_over(y2))
        self.emit(f"{len(rows)} pairs:")
        words = {}      # tau index -> word, formed once per tau
        for p in rows:
            if p.tau.index not in words:
                words[p.tau.index] = p.tau.tau_word_str() or "e"
            self.emit(p.line(words[p.tau.index]))
        per = " ".join(f"{z}:{c}"
                       for z, c in sorted(lc.counts.items(),
                                          key=lambda kv: kv[0].entries))
        self.emit(f"per infinitesimal-character class: {per}")

    def cmd_count_z(self, args):
        ic = self.need_ic()
        if len(args) not in (0, 2):
            raise CommandError("usage: count-z [x2 y2]")
        rx = parse_central(ic, args[0]) if args else None
        ry = parse_central(ic.dual, args[1]) if args else None
        rows, total = count_z_blocks(ic, rx, ry)
        tbl = twisted_involutions(ic)
        for idx, nx, ny in rows:
            if nx and ny:
                word = tbl.elements[idx].tau_word_str() or "e"
                self.emit(f"tau {word}: {nx} x {ny} = {nx * ny}")
        self.emit(f"total {total}")

    def cmd_realweyl(self, args):
        if len(args) != 1:
            raise CommandError("usage: realweyl <kgb-id>")
        table = self._x_table()
        k = _index(args[0], len(table), "element id")
        info = real_weyl(table[k])
        self.emit(f"real weyl group of element {k}: order {info.total} = "
                  f"{info.complex_fixed} (complex) x {info.stab_imaginary} "
                  f"(imaginary stabilizer) x {info.real_order} (real)")

    def cmd_dual(self, args):
        ic = self.need_ic()
        self._switch(ic.dual.rd, ic.dual, "switched to the dual inner class")

    def cmd_dot(self, args):
        if len(args) != 2:
            raise CommandError("usage: dot <X|form#> <path>")
        what, path = args
        table = self._x_table()
        if what != "X":
            table = table.form_table(self._form(what).index)
        try:
            with open(path, "w") as fh:
                fh.write(table.dot())
        except OSError as exc:
            raise CommandError(f"cannot write {path}: "
                               f"{exc.strerror or exc}")
        self.emit(f"wrote {path}")

    def cmd_quit(self, args):
        self.done = True


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="liepar",
        description="structure theory of real reductive groups")
    parser.add_argument("--cmd-file", help="read commands from a file")
    parser.add_argument("--verbose", action="store_true",
                        help="append timing comments to command output")
    opts = parser.parse_args(argv)
    session = Session(sys.stdout, verbose=opts.verbose)
    source = opts.cmd_file or "standard input"
    try:
        if opts.cmd_file:
            try:
                fh = open(opts.cmd_file, encoding="utf-8")
            except OSError as exc:
                return _fail(f"cannot read {source}: {exc.strerror}")
            with fh:
                session.run(fh)
        else:
            if sys.stdin is None:
                return _fail(f"cannot read {source}: it is closed")
            # strict, as a --cmd-file is: a byte that is not UTF-8 is an error
            sys.stdin.reconfigure(encoding="utf-8", errors="strict")
            if sys.stdin.isatty():
                while not session.done:
                    sys.stderr.write("liepar> ")
                    sys.stderr.flush()
                    line = sys.stdin.readline()
                    if not line:
                        break
                    session.run([line])
            else:
                session.run(sys.stdin)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: stop, flushing to devnull at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UnicodeDecodeError:
        return _fail(f"{source} is not UTF-8 text")
    return 0


def _fail(message) -> int:
    """One error line on stderr after the output so far; exit status 1."""
    sys.stdout.flush()
    sys.stderr.write(f"error: {message}\n")
    return 1


if __name__ == "__main__":
    sys.exit(main())
