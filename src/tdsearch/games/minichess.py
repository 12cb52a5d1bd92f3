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
state built for it.
"""

from __future__ import annotations

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


def _ray_masks(table, up: bool):
    """Per square, the masks of the rays that run towards higher (up) or lower squares."""
    return tuple(tuple(sum(1 << t for t in ray) for ray in rays if (ray[0] > sq) == up)
                 for sq, rays in enumerate(table))


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
ROOK_UP, ROOK_DOWN = _ray_masks(ROOK_RAYS, True), _ray_masks(ROOK_RAYS, False)
BISHOP_UP, BISHOP_DOWN = _ray_masks(BISHOP_RAYS, True), _ray_masks(BISHOP_RAYS, False)

PROMOTION_SQUARES = 0b11111 | 0b11111 << 20  # a pawn only ever moves onto its last rank


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

    Kinds come from state, so a capture is a square left out of opp.  A
    ray's first blocker is the lowest set bit of ray & occ if the ray runs
    up, else the highest, which lies in sliders iff blockers & sliders
    outweighs blockers & ~sliders.
    """
    pawn_masks = WHITE_PAWN_MASKS if state.side_to_move is WHITE else BLACK_PAWN_MASKS
    if opp & (KNIGHT_MASKS[sq] & state.knights | KING_MASKS[sq] & state.kings
              | pawn_masks[sq] & state.pawns):
        return True
    queens = state.queens & opp
    sliders = state.rooks & opp | queens
    if sliders & ROOK_LINES[sq]:
        for ray in ROOK_UP[sq]:
            blockers = ray & occ
            if blockers & -blockers & sliders:
                return True
        for ray in ROOK_DOWN[sq]:
            blockers = ray & occ
            if blockers & sliders > blockers & ~sliders:
                return True
    sliders = state.bishops & opp | queens
    if sliders & BISHOP_LINES[sq]:
        for ray in BISHOP_UP[sq]:
            blockers = ray & occ
            if blockers & -blockers & sliders:
                return True
        for ray in BISHOP_DOWN[sq]:
            blockers = ray & occ
            if blockers & sliders > blockers & ~sliders:
                return True
    return False


def in_check(state: MinichessState) -> bool:
    """True if the side to move's king is attacked."""
    own, opp = state.own, state.opp
    return _attacked((state.kings & own).bit_length() - 1, own | opp, opp, state)


def pseudo_moves(state: MinichessState):
    """Yield the side to move's (from, to) pairs ignoring king safety.

    Deterministic order: own pieces by ascending square, each piece's
    targets in table order (a pawn's push before its captures, a queen's
    rook rays before its bishop rays, each ray outwards to its first piece).
    """
    own, opp, pawns, knights, bishops, rooks, _, kings, side, _ = state
    occ = own | opp
    white = side is WHITE
    rest = own
    while rest:
        bit = rest & -rest
        rest ^= bit
        sq = bit.bit_length() - 1
        if bit & pawns:
            fwd = sq + SIZE if white else sq - SIZE
            if 0 <= fwd < NSQUARES and not occ >> fwd & 1:
                yield (sq, fwd)
            for t in (WHITE_PAWN_CAPS if white else BLACK_PAWN_CAPS)[sq]:
                if opp >> t & 1:
                    yield (sq, t)
        elif bit & (knights | kings):
            for t in (KNIGHT_TARGETS if bit & knights else KING_TARGETS)[sq]:
                if not own >> t & 1:
                    yield (sq, t)
        else:
            rays = (ROOK_RAYS if bit & rooks else BISHOP_RAYS if bit & bishops
                    else QUEEN_RAYS)[sq]
            for ray in rays:
                for t in ray:
                    if occ >> t & 1:
                        if opp >> t & 1:
                            yield (sq, t)
                        break
                    yield (sq, t)


def _is_safe(move, state: MinichessState, occ: int, king: int) -> bool:
    """True if move leaves the mover's king, on bit king, unattacked."""
    frm, to = move
    source, target = 1 << frm, 1 << to
    ksq = to if source == king else king.bit_length() - 1
    return not _attacked(ksq, occ ^ source | target, state.opp & ~target, state)


def legal_moves(state: MinichessState):
    """Legal (from, to) pairs, in pseudo_moves order.

    Out of check, a move can expose the king only if it starts on the
    king's square or on a rook or bishop ray from the king that holds an
    enemy slider of that line's kind; only such moves get the attack test.
    In check every move gets it.
    """
    own, opp = state.own, state.opp
    occ = own | opp
    king = state.kings & own
    ksq = king.bit_length() - 1
    if _attacked(ksq, occ, opp, state):
        unsafe = own
    else:
        unsafe = king
        queens = state.queens & opp
        for rays, sliders in ((ROOK_UP[ksq] + ROOK_DOWN[ksq], state.rooks & opp | queens),
                              (BISHOP_UP[ksq] + BISHOP_DOWN[ksq], state.bishops & opp | queens)):
            unsafe |= sum(ray & own for ray in rays if ray & sliders)  # rays are disjoint
    return [move for move in pseudo_moves(state)
            if not unsafe >> move[0] & 1 or _is_safe(move, state, occ, king)]


def has_any_legal(state: MinichessState) -> bool:
    """True if the side to move has a legal move; stops at the first one."""
    occ, king = state.own | state.opp, state.kings & state.own
    for move in pseudo_moves(state):
        if _is_safe(move, state, occ, king):
            return True
    return False


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
    return MinichessState(opp, own ^ path, pawns, knights, bishops, rooks, queens, kings,
                          side.opponent, ply + 1)


# Text codec tables.  The placement is unpacked to one character per square,
# "1" for an empty one, ranks top first and joined by '/'; runs of "1" are
# packed to one digit in the text.
_BLANK_PLACEMENT = "/".join(["1" * SIZE] * SIZE)
_TEXT_CELL = {1 << sq: (SIZE - 1 - sq // SIZE) * (SIZE + 1) + sq % SIZE for sq in range(NSQUARES)}
_EMPTY_RUNS = tuple(("1" * n, str(n)) for n in range(SIZE, 1, -1))
# Text character -> its unpacked squares: a piece letter, or an ASCII digit's run.
_TEXT_SQUARES = {**{ch: ch for ch in _LETTERS}, **{str(n): "1" * n for n in range(10)}}
# Unpacked squares -> one binary digit each: White's pieces, Black's, each kind's.
_WHITE_BIT, _BLACK_BIT, *_KIND_BIT = (
    bytes.maketrans(b"1" + _LETTERS.encode(), bytes(b"01"[ch in letters] for ch in "1" + _LETTERS))
    for letters in (_LETTERS[:6], _LETTERS[6:], *(_LETTERS[kind::6] for kind in range(6))))


def _read_rank(rank_txt: str) -> str:
    """A rank of the text with "1" per empty square, files a to e."""
    row = ""
    for ch in rank_txt:
        squares = _TEXT_SQUARES.get(ch)
        if squares is None:
            if not ch.isdigit():
                raise ValueError(f"bad piece char {ch!r}")
            squares = "1" * int(ch)  # any other Unicode digit
        row += squares
    if len(row) != SIZE:
        raise ValueError(f"rank {rank_txt!r} does not fill {SIZE} files")
    return row


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
        if action not in pseudo_moves(state):
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
            placement, side_txt, ply_txt = text.strip().split()
        except ValueError:
            raise ValueError(f"bad minichess text: {text!r}") from None
        ranks = placement.split("/")
        if len(ranks) != SIZE:
            raise ValueError(f"bad minichess text: {text!r}")
        # Squares 24..0 in order, so each bitboard reads as one binary number.
        board = "".join([_read_rank(rank)[::-1] for rank in ranks]).encode()
        white, black = int(board.translate(_WHITE_BIT), 2), int(board.translate(_BLACK_BIT), 2)
        kinds = [int(board.translate(table), 2) for table in _KIND_BIT]
        if (kinds[5] & white).bit_count() != 1 or (kinds[5] & black).bit_count() != 1:
            raise ValueError("each side needs exactly one king")
        side = {"w": WHITE, "b": BLACK}.get(side_txt)
        if side is None:
            raise ValueError(f"bad side token {side_txt!r}")
        own, opp = (white, black) if side is WHITE else (black, white)
        ply = int(ply_txt)
        if in_check(MinichessState(opp, own, *kinds, side.opponent, ply)):
            raise ValueError(f"side not to move is in check: {text!r}")
        return MinichessState(own, opp, *kinds, side, ply)

    def action_to_str(self, action) -> str:
        frm, to = action
        return f"{_FILES[frm % SIZE]}{frm // SIZE + 1}{_FILES[to % SIZE]}{to // SIZE + 1}"

    def action_from_str(self, text: str):
        text = text.strip()
        if len(text) != 4:
            raise ValueError(f"bad move token {text!r}")
        frm = _sq(_FILES.index(text[0]), int(text[1]) - 1)
        to = _sq(_FILES.index(text[2]), int(text[3]) - 1)
        return (frm, to)
