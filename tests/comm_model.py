"""Hand-written communication model of the secure engines.

The program derives its product plan and its round count from one
declaration of the iteration (protocols.config.iteration_stages). These
are the same facts written out per layout and task as closed forms, with
no src/ code in them, so the tests can hold the derived values to an
independent reference: every pairwise product in order (product_plan),
the round numbers one engine run takes (fold_rounds), the rounds between
fold bases (round_stride) and the frames every party sends together
(fold_frames).

Terms: n parties; truncated aggregates (weights, errors) live on parties
0 and 1, the holders, so every batch operand pairs with those two. With
n > 2 each share-wise truncation of an aggregate spread over everyone
first re-shares it to the holders, one round in which each of the n - 2
other parties sends one frame to each holder.
"""

# Rounds 0..15 of an engine run are reserved for setup traffic.
SETUP_ROUNDS = 16


def product_plan(cfg, task: str, layout: str, widths: list[int]) -> list:
    """(a, b, shape, elementwise) per pairwise product of a run, in the
    order the engines open them: prediction, the sigmoid's three (logistic
    only), gradient, every iteration. widths[i] is party i's batch width
    (the full width in a horizontal run, block i's in a vertical one)."""
    b = cfg.batch_size
    pairs = [(i, h, w) for i, w in enumerate(widths) for h in (0, 1)
             if i != h]
    predict = [(i, h, (b, w, 1), False) for i, h, w in pairs]
    if layout == "horizontal":
        grad = [(i, h, (w, b, 1), False) for i, h, w in pairs]
    else:
        # err^T stays the left operand
        grad = [(h, i, (1, b, w), False) for i, h, w in pairs]
    sigmoid = ([(0, 1, b, True), (0, 1, b, True), (1, 0, b, True)]
               if task == "logistic" else [])
    return (predict + sigmoid + grad) * cfg.iterations


def fold_rounds(cfg, task: str, layout: str, n_parties: int) -> int:
    """Round numbers one engine run takes, counted from its round base:
    the reserved setup rounds, every iteration's rounds and the final
    opening.

    Per iteration: the batch (or label) share-out, one round per pairwise
    product, and with three or more parties one re-share round before
    each share-wise truncation of an aggregate spread over everyone.
    """
    n = n_parties
    spread = 1 if n > 2 else 0
    products = 2 * (2 * n - 2)  # prediction and gradient
    sigmoid = 3 + spread if task == "logistic" else 0
    if layout == "horizontal":
        per_iter = 2 + products + 2 * spread + sigmoid
        setup, final = 0, 1
    else:
        per_iter = 1 + products + (2 * n + 1) * spread + sigmoid
        setup, final = 1, n * spread + n
    return SETUP_ROUNDS + setup + cfg.iterations * per_iter + final


def round_stride(rounds: int, unit: int) -> int:
    """Rounds between the bases of consecutive folds: the least multiple
    of unit that holds a fold of the given rounds."""
    return unit * -(-rounds // unit)


def fold_frames(task: str, layout: str, variant: str,
                n: int) -> tuple[int, int]:
    """(frames per iteration, frames per fold outside the iterations),
    summed over all n parties.

    A pairwise product costs 6 frames under TI (each side shares its
    operand with the peer, then sends its shares of D and E) and 4 under
    OTI (each side's two blinded frames). Per iteration there are 2n - 2
    prediction and 2n - 2 gradient products, plus the sigmoid's 3
    elementwise ones; a re-share round costs 2(n - 2) frames.
    """
    per_product = 6 if variant == "TI" else 4
    logistic = task == "LoRe"
    products = 2 * (2 * n - 2) + 3 * logistic
    reshare = 2 * (n - 2)
    all_to_all = n * (n - 1)
    if layout == "horizontal":
        # the owner's x and y shares to every peer; re-shares of the
        # prediction (logistic), the error and the gradient
        share_out, reshares = 2 * (n - 1), 2 + logistic
        # policy broadcast; the final opening to everyone
        fixed = 2 * all_to_all
    else:
        # the label shares to every peer; re-shares of the n weight
        # blocks, the prediction (logistic), the error and the n
        # gradient blocks
        share_out, reshares = n - 1, 2 * n + 1 + logistic
        # policy broadcast, the zero weight split, the final re-share of
        # the n blocks and each block's opening to its owner
        fixed = 3 * all_to_all + n * reshare
    per_iter = share_out + per_product * products + reshare * reshares
    return per_iter, fixed
