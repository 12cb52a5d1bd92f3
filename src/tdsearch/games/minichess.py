"""5x5 Gardner-style minichess.

Files a-e, ranks 1-5.  Setup mirrors orthodox chess restricted to 5x5:
rook/knight/bishop/queen/king on the back rank, five pawns in front.
Rule restrictions: no castling, no en passant, pawns move a single square,
promotion is always to a queen.  Checkmate and stalemate are standard; a
game is drawn once it reaches 50 plies.

A state is eight int bitboards, bit index = square = rank * 5 + file, rank
0 being White's back rank: own and opp hold the pieces of the side to move
and of its opponent, and one board per piece kind holds that kind for both
colours.  Actions are (from, to) square pairs; promotion is implicit.  King
safety is an attack test on the occupancy a move leaves, with no successor
state built for it; out of check only the king's moves and those of a piece
that alone blocks an enemy slider's line to the king get it.  Move lists
are read from tables: step targets in table order, and each slider ray as
the quiet prefix up to its first piece.  apply checks a move against its
piece's own reach without generating the side's moves, and the terminal
test generates them only when none of each piece's nearest moves is legal.
"""

from __future__ import annotations

from itertools import product
from operator import itemgetter
from typing import NamedTuple

from tdsearch.games.base import (
    BLACK,
    DRAW,
    WHITE,
    Game,
    IllegalMoveError,
    Outcome,
    Side,
)

SIZE = 5
NSQUARES = 25
PLY_CAP = 50

_FILES = "abcde"
# Piece letters in the order of the state's kind boards: White's, then Black's.
_LETTERS = "PNBRQKpnbrqk"


def _sq(file: int, rank: int) -> int:
    return rank * SIZE + file


def _on_board(file: int, rank: int) -> bool:
    return 0 <= file < SIZE and 0 <= rank < SIZE


def _build_step_table(deltas):
    table = []
    for sq in range(NSQUARES):
        f, r = sq % SIZE, sq // SIZE
        table.append(tuple(_sq(f + df, r + dr) for df, dr in deltas if _on_board(f + df, r + dr)))
    return tuple(table)


def _build_ray_table(deltas):
    table = []
    for sq in range(NSQUARES):
        f, r = sq % SIZE, sq // SIZE
        rays = []
        for df, dr in deltas:
            ray = []
            nf, nr = f + df, r + dr
            while _on_board(nf, nr):
                ray.append(_sq(nf, nr))
                nf, nr = nf + df, nr + dr
            if ray:
                rays.append(tuple(ray))
        table.append(tuple(rays))
    return tuple(table)


def _masks(table):
    """Per square, the bitboard of the squares in a target or ray table entry."""
    return tuple(sum(1 << t for t in entry) for entry in table)


KNIGHT_TARGETS = _build_step_table(
    [(1, 2), (2, 1), (2, -1), (1, -2), (-1, -2), (-2, -1), (-2, 1), (-1, 2)]
)
KING_TARGETS = _build_step_table(
    [(0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1), (-1, 0), (-1, 1)]
)
ROOK_RAYS = _build_ray_table([(0, 1), (1, 0), (0, -1), (-1, 0)])
BISHOP_RAYS = _build_ray_table([(1, 1), (1, -1), (-1, -1), (-1, 1)])
QUEEN_RAYS = tuple(r + b for r, b in zip(ROOK_RAYS, BISHOP_RAYS))

# Diagonal squares a white pawn on sq attacks (and, by symmetry, the squares
# a black pawn must stand on to attack sq).
WHITE_PAWN_CAPS = _build_step_table([(-1, 1), (1, 1)])
BLACK_PAWN_CAPS = _build_step_table([(-1, -1), (1, -1)])

KNIGHT_MASKS = _masks(KNIGHT_TARGETS)
KING_MASKS = _masks(KING_TARGETS)
WHITE_PAWN_MASKS = _masks(WHITE_PAWN_CAPS)
BLACK_PAWN_MASKS = _masks(BLACK_PAWN_CAPS)
ROOK_LINES = _masks(tuple(sum(rays, ()) for rays in ROOK_RAYS))
BISHOP_LINES = _masks(tuple(sum(rays, ()) for rays in BISHOP_RAYS))

PROMOTION_SQUARES = 0b11111 | 0b11111 << 20  # a pawn only ever moves onto its last rank


def _build_between_table():
    """Per from * NSQUARES + to, the squares strictly between two squares on
    one rook or bishop line, 0 for squares on no common line."""
    table = [0] * NSQUARES * NSQUARES
    for sq, rays in enumerate(QUEEN_RAYS):
        for ray in rays:
            between = 0
            for t in ray:
                table[sq * NSQUARES + t] = between
                between |= 1 << t
    return tuple(table)


BETWEEN = _build_between_table()

# Every (from, to) pair at from * NSQUARES + to, so move lists share one tuple per move.
_MOVES = tuple(product(range(NSQUARES), repeat=2))


def _build_quiet_table():
    """Per from * NSQUARES + blocker, the moves of a slider on from to the
    squares strictly between it and a piece on blocker, outwards: the quiet
    prefix of the ray the blocker cuts; () for squares on no common line."""
    table = [()] * NSQUARES * NSQUARES
    for sq, rays in enumerate(QUEEN_RAYS):
        for ray in rays:
            for i, t in enumerate(ray):
                table[sq * NSQUARES + t] = tuple(_MOVES[sq * NSQUARES + u] for u in ray[:i])
    return tuple(table)


_QUIET = _build_quiet_table()


def _slides(table):
    """Per square, each ray as (mask, runs up, the moves to all its squares)."""
    return tuple(tuple((sum(1 << t for t in ray), ray[0] > sq,
                        _QUIET[sq * NSQUARES + ray[-1]] + (_MOVES[sq * NSQUARES + ray[-1]],))
                       for ray in rays)
                 for sq, rays in enumerate(table))


ROOK_SLIDES, BISHOP_SLIDES = _slides(ROOK_RAYS), _slides(BISHOP_RAYS)
QUEEN_SLIDES = tuple(r + b for r, b in zip(ROOK_SLIDES, BISHOP_SLIDES))
# A slider's squares next to it, on its own lines.
ROOK_NEXT = tuple(k & r for k, r in zip(KING_MASKS, ROOK_LINES))
BISHOP_NEXT = tuple(k & b for k, b in zip(KING_MASKS, BISHOP_LINES))
# The square a pawn on sq pushes to, as a mask; 0 off the board.
WHITE_PUSH_MASKS = tuple(1 << sq + SIZE if sq + SIZE < NSQUARES else 0 for sq in range(NSQUARES))
BLACK_PUSH_MASKS = tuple(1 << sq - SIZE if sq >= SIZE else 0 for sq in range(NSQUARES))
_new_tuple = tuple.__new__


class MinichessState(NamedTuple):
    own: int      # pieces of the side to move
    opp: int      # pieces of the other side
    pawns: int
    knights: int
    bishops: int
    rooks: int
    queens: int
    kings: int
    side_to_move: Side
    ply: int


def _attacked(sq: int, occ: int, opp: int, state: MinichessState) -> bool:
    """True if a piece in opp attacks sq, with occ the occupied squares.

    Kinds come from state, so a capture is a square left out of opp.  An
    enemy slider on one of sq's lines of its kind attacks sq iff no square
    between them is occupied.
    """
    _, _, pawns, knights, bishops, rooks, queens, kings, side, _ = state
    if opp & (KNIGHT_MASKS[sq] & knights | KING_MASKS[sq] & kings
              | (WHITE_PAWN_MASKS if side is WHITE else BLACK_PAWN_MASKS)[sq] & pawns):
        return True
    sliders = opp & ((rooks | queens) & ROOK_LINES[sq] | (bishops | queens) & BISHOP_LINES[sq])
    base = sq * NSQUARES
    while sliders:
        bit = sliders & -sliders
        if not BETWEEN[base + bit.bit_length() - 1] & occ:
            return True
        sliders ^= bit
    return False


def _unsafe(state: MinichessState) -> int:
    """The own pieces whose moves may leave the king attacked.

    In check that is every piece.  Otherwise it is the king and each piece
    that is the only one between the king and an enemy slider of its line:
    with two pieces between them, no single move opens the line.
    """
    own, opp, pawns, knights, bishops, rooks, queens, kings, side, _ = state
    king = kings & own
    ksq = king.bit_length() - 1
    if opp & (KNIGHT_MASKS[ksq] & knights | KING_MASKS[ksq] & kings
              | (WHITE_PAWN_MASKS if side is WHITE else BLACK_PAWN_MASKS)[ksq] & pawns):
        return own
    occ = own | opp
    unsafe = king
    sliders = opp & ((rooks | queens) & ROOK_LINES[ksq] | (bishops | queens) & BISHOP_LINES[ksq])
    base = ksq * NSQUARES
    while sliders:
        bit = sliders & -sliders
        sliders ^= bit
        between = BETWEEN[base + bit.bit_length() - 1] & occ
        if not between:
            return own
        if not between & (between - 1):
            unsafe |= between & own
    return unsafe


def in_check(state: MinichessState) -> bool:
    """True if the side to move's king is attacked."""
    own, opp = state.own, state.opp
    return _attacked((state.kings & own).bit_length() - 1, own | opp, opp, state)


def pseudo_moves(state: MinichessState, unsafe: int = 0) -> list:
    """The side to move's (from, to) pairs ignoring king safety, except that
    the moves of a piece on the bitboard unsafe are kept only if they leave
    the king unattacked.

    Deterministic order: own pieces by ascending square, each piece's
    targets in table order (a pawn's push before its captures, a queen's
    rook rays before its bishop rays, each ray outwards to its first piece).
    A slider ray adds its quiet prefix up to its first piece, then that
    piece if it is an enemy.
    """
    own, opp, pawns, knights, bishops, rooks, _, kings, side, _ = state
    occ = own | opp
    king = kings & own
    step, caps = (SIZE, WHITE_PAWN_CAPS) if side is WHITE else (-SIZE, BLACK_PAWN_CAPS)
    moves = []
    append = moves.append
    rest = own
    while rest:
        bit = rest & -rest
        rest ^= bit
        sq = bit.bit_length() - 1
        base = sq * NSQUARES
        start = len(moves)
        if bit & pawns:
            fwd = sq + step
            if 0 <= fwd < NSQUARES and not occ >> fwd & 1:
                append(_MOVES[base + fwd])
            for t in caps[sq]:
                if opp >> t & 1:
                    append(_MOVES[base + t])
        elif bit & (knights | kings):
            for t in (KNIGHT_TARGETS if bit & knights else KING_TARGETS)[sq]:
                if not own >> t & 1:
                    append(_MOVES[base + t])
        else:
            for ray, up, full in (ROOK_SLIDES if bit & rooks else BISHOP_SLIDES if bit & bishops
                                  else QUEEN_SLIDES)[sq]:
                blockers = ray & occ
                if not blockers:
                    moves += full
                    continue
                t = (blockers & -blockers if up else blockers).bit_length() - 1
                moves += _QUIET[base + t]
                if opp >> t & 1:
                    append(_MOVES[base + t])
        if bit & unsafe:
            moves[start:] = [move for move in moves[start:] if _is_safe(move, state, occ, king)]
    return moves


def _reaches(state: MinichessState, frm: int, to: int) -> bool:
    """True if (frm, to) is a pseudo-move of the side to move's piece on frm.

    Read from that piece's own reach: a pawn's push and capture masks, a
    knight's or king's mask, a slider's line with nothing between.
    """
    own, opp, pawns, knights, bishops, rooks, queens, kings, side, _ = state
    source, target = 1 << frm, 1 << to
    if target & own:
        return False
    if source & pawns:
        push, caps = ((frm + SIZE, WHITE_PAWN_MASKS) if side is WHITE
                      else (frm - SIZE, BLACK_PAWN_MASKS))
        return to == push and not target & opp or bool(caps[frm] & target & opp)
    if source & knights:
        return bool(KNIGHT_MASKS[frm] & target)
    if source & kings:
        return bool(KING_MASKS[frm] & target)
    lines = (ROOK_LINES[frm] if source & (rooks | queens) else 0) \
        | (BISHOP_LINES[frm] if source & (bishops | queens) else 0)
    return bool(lines & target) and not BETWEEN[frm * NSQUARES + to] & (own | opp)


def _is_safe(move, state: MinichessState, occ: int, king: int) -> bool:
    """True if move leaves the mover's king, on bit king, unattacked."""
    frm, to = move
    source, target = 1 << frm, 1 << to
    ksq = to if source == king else king.bit_length() - 1
    return not _attacked(ksq, occ ^ source | target, state.opp & ~target, state)


def legal_moves(state: MinichessState) -> list:
    """Legal (from, to) pairs, in pseudo_moves order: only the moves of the
    pieces _unsafe names get the attack test."""
    return pseudo_moves(state, _unsafe(state))


def has_any_legal(state: MinichessState) -> bool:
    """True if the side to move has a legal move.

    Each piece's cheap candidates come first, one attack test each: a
    pawn's push and captures, a knight's or king's targets, a slider's
    squares next to it.  Only if all of them leave the king attacked does
    the full move list get scanned, for a slider's farther squares.
    """
    own, opp, pawns, knights, bishops, rooks, _, kings, side, _ = state
    occ = own | opp
    king = kings & own
    ksq = king.bit_length() - 1
    pushes, caps = (WHITE_PUSH_MASKS, WHITE_PAWN_MASKS) if side is WHITE \
        else (BLACK_PUSH_MASKS, BLACK_PAWN_MASKS)
    rest = own
    while rest:
        bit = rest & -rest
        rest ^= bit
        sq = bit.bit_length() - 1
        if bit & pawns:
            targets = pushes[sq] & ~occ | caps[sq] & opp
        elif bit & knights:
            targets = KNIGHT_MASKS[sq] & ~own
        elif bit & kings:
            targets = KING_MASKS[sq] & ~own
            while targets:
                t = targets & -targets
                targets ^= t
                if not _attacked(t.bit_length() - 1, occ ^ bit | t, opp & ~t, state):
                    return True
            continue
        else:
            targets = (ROOK_NEXT if bit & rooks else BISHOP_NEXT if bit & bishops
                       else KING_MASKS)[sq] & ~own
        vacated = occ ^ bit
        while targets:
            t = targets & -targets
            targets ^= t
            if not _attacked(ksq, vacated | t, opp & ~t, state):
                return True
    return any(_is_safe(move, state, occ, king) for move in pseudo_moves(state))


def _successor(state: MinichessState, move) -> MinichessState:
    """State after a pseudo-move, with automatic queen promotion."""
    own, opp, pawns, knights, bishops, rooks, queens, kings, side, ply = state
    frm, to = move
    source, target = 1 << frm, 1 << to
    path = source | target
    if opp & target:
        keep = ~target
        pawns, knights, bishops, rooks, queens, kings = (
            pawns & keep, knights & keep, bishops & keep, rooks & keep, queens & keep,
            kings & keep)
        opp &= keep
    if pawns & source:
        if target & PROMOTION_SQUARES:
            pawns ^= source
            queens |= target
        else:
            pawns ^= path
    elif knights & source:
        knights ^= path
    elif bishops & source:
        bishops ^= path
    elif rooks & source:
        rooks ^= path
    elif queens & source:
        queens ^= path
    else:
        kings ^= path
    # tuple.__new__ skips the NamedTuple's Python-level __new__.
    return _new_tuple(MinichessState, (opp, own ^ path, pawns, knights, bishops, rooks, queens,
                                       kings, side.opponent, ply + 1))


# Text codec tables.  The placement is unpacked to one character per square,
# "1" for an empty one, ranks top first and joined by '/'; each run of "1"
# is packed to one digit in the text.
_BLANK_PLACEMENT = "/".join(["1" * SIZE] * SIZE)
_TEXT_CELL = {1 << sq: (SIZE - 1 - sq // SIZE) * (SIZE + 1) + sq % SIZE for sq in range(NSQUARES)}
_EMPTY_RUNS = tuple(("1" * n, str(n)) for n in range(SIZE, 1, -1))
_EMPTY_RUN_BYTES = tuple((run.encode(), digit.encode()) for run, digit in _EMPTY_RUNS)
# Every digit a text may hold to "1", so two digits in a row read b"11".
_DIGITS_AS_ONE = bytes.maketrans(b"2345", b"1111")
# Unpacks the digits of a rank to their runs; piece letters stay.
_UNPACK = str.maketrans({digit: run for run, digit in _EMPTY_RUNS})
# The characters a rank may hold; deleting them leaves the bad ones.
_DROP_RANK_CHARS = str.maketrans("", "", "12345" + _LETTERS)
_SQUARE_BYTES = ("1" + _LETTERS).encode()
# All that deleting them leaves of a well-formed unpacked placement.
_SEPARATORS = b"/" * (SIZE - 1)
# The unpacked placement's characters of squares 24..0, so each bitboard
# reads as one binary number.
_SQUARES_DOWN = itemgetter(*[_TEXT_CELL[1 << sq] for sq in reversed(range(NSQUARES))])
# Unpacked squares -> one binary digit each: White's pieces, Black's, each kind's.
_WHITE_BIT, _BLACK_BIT, *_KIND_BIT = (
    bytes.maketrans(b"1" + _LETTERS.encode(), bytes(b"01"[ch in letters] for ch in "1" + _LETTERS))
    for letters in (_LETTERS[:6], _LETTERS[6:], *(_LETTERS[kind::6] for kind in range(6))))
# The ply tokens a text may carry: 0 to PLY_CAP in ASCII decimal, as to_text writes them.
_PLY_TOKENS = {str(ply): ply for ply in range(PLY_CAP + 1)}


def _unpack(placement: str, text: str) -> bytes:
    """The placement with "1" per empty square, files a to e, ranks joined by '/'.

    Only a placement to_text writes is read: piece letters and the digits 1
    to 5, no two digits in a row, five ranks of five files.
    """
    if placement.isascii():
        data = placement.encode()
        if b"11" not in data.translate(_DIGITS_AS_ONE):
            for run, digit in _EMPTY_RUN_BYTES:
                data = data.replace(digit, run)
            if len(data) == len(_BLANK_PLACEMENT) \
                    and data[SIZE::SIZE + 1] == data.translate(None, _SQUARE_BYTES) == _SEPARATORS:
                return data
    raise _placement_error(placement, text)


def _placement_error(placement: str, text: str) -> ValueError:
    """What is wrong first with a placement _unpack rejects, rank by rank: a
    bad character, two digits in a row, or a rank that does not fill the
    files; or, failing those, the text."""
    ranks = placement.split("/")
    if len(ranks) == SIZE:
        for rank_txt in ranks:
            bad = rank_txt.translate(_DROP_RANK_CHARS)
            if bad:
                return ValueError(f"bad piece char {bad[0]!r}")
            if b"11" in rank_txt.encode().translate(_DIGITS_AS_ONE):
                return ValueError(f"rank {rank_txt!r} has adjacent digits")
            if len(rank_txt.translate(_UNPACK)) != SIZE:
                return ValueError(f"rank {rank_txt!r} does not fill {SIZE} files")
    return ValueError(f"bad minichess text: {text!r}")


class Minichess(Game):
    def initial_state(self) -> MinichessState:
        return self.from_text("rnbqk/ppppp/5/PPPPP/RNBQK w 0")

    def legal_actions(self, state: MinichessState):
        if state.ply >= PLY_CAP:
            return []
        return legal_moves(state)

    def apply(self, state: MinichessState, action) -> MinichessState:
        try:
            frm, to = action
        except (TypeError, ValueError):
            raise IllegalMoveError(f"bad action: {action!r}") from None
        if state.ply >= PLY_CAP:
            raise IllegalMoveError("game over: ply cap reached")
        if not (0 <= frm < NSQUARES and 0 <= to < NSQUARES) or not state.own >> frm & 1:
            raise IllegalMoveError(f"no movable piece on square {frm}")
        # A pair that is not a tuple, such as a list, is no move legal_actions lists.
        if not (isinstance(action, tuple) and _reaches(state, frm, to)):
            raise IllegalMoveError(f"piece cannot reach square {to}")
        if not _is_safe(action, state, state.own | state.opp, state.kings & state.own):
            raise IllegalMoveError("move leaves the king in check")
        return _successor(state, action)

    def apply_trusted(self, state: MinichessState, action) -> MinichessState:
        # Fast path for callers holding an action from legal_actions().
        return _successor(state, action)

    def outcome(self, state: MinichessState) -> Outcome | None:
        # Mate/stalemate take precedence if both trip at the cap.
        if has_any_legal(state):
            return DRAW if state.ply >= PLY_CAP else None
        return Outcome(float(state.side_to_move.opponent.sign)) if in_check(state) else DRAW

    # -- text round trip: placement top rank first / side / ply ----------

    def to_text(self, state: MinichessState) -> str:
        white = state.own if state.side_to_move is WHITE else state.opp
        cells = [*_BLANK_PLACEMENT]
        for kind, bits in enumerate(state[2:8]):
            while bits:
                bit = bits & -bits
                bits ^= bit
                cells[_TEXT_CELL[bit]] = _LETTERS[kind if bit & white else kind + 6]
        placement = "".join(cells)
        for run, digit in _EMPTY_RUNS:
            placement = placement.replace(run, digit)
        side = "w" if state.side_to_move is WHITE else "b"
        return f"{placement} {side} {state.ply}"

    def from_text(self, text: str) -> MinichessState:
        try:
            placement, side_txt, ply_txt = text.split(" ")
        except ValueError:
            raise ValueError(f"bad minichess text: {text!r}") from None
        board = bytes(_SQUARES_DOWN(_unpack(placement, text)))
        white, black = int(board.translate(_WHITE_BIT), 2), int(board.translate(_BLACK_BIT), 2)
        kinds = [int(board.translate(table), 2) for table in _KIND_BIT]
        if (kinds[5] & white).bit_count() != 1 or (kinds[5] & black).bit_count() != 1:
            raise ValueError("each side needs exactly one king")
        side = {"w": WHITE, "b": BLACK}.get(side_txt)
        if side is None:
            raise ValueError(f"bad side token {side_txt!r}")
        own, opp = (white, black) if side is WHITE else (black, white)
        ply = _PLY_TOKENS.get(ply_txt)
        if ply is None:
            raise ValueError(f"bad ply token {ply_txt!r}")
        if in_check(MinichessState(opp, own, *kinds, side.opponent, ply)):
            raise ValueError(f"side not to move is in check: {text!r}")
        return MinichessState(own, opp, *kinds, side, ply)

    def action_to_str(self, action) -> str:
        frm, to = action
        return f"{_FILES[frm % SIZE]}{frm // SIZE + 1}{_FILES[to % SIZE]}{to // SIZE + 1}"

    def action_from_str(self, text: str):
        move = _MOVE_TOKENS.get(text)
        if move is None:
            raise ValueError(f"bad move token {text!r}")
        return move


# The move tokens action_to_str writes, each to its (from, to) pair.
_MOVE_TOKENS = {Minichess().action_to_str(move): move for move in _MOVES}
